"""Paper-style result tables.

Helpers that render experiment results the way the paper presents them: one
row per configuration (or per x-axis point) with aligned numeric columns —
the same rows/series Figures 3–7 plot.
"""

from __future__ import annotations

import warnings
from typing import Mapping, Optional, Sequence

from .stages import STAGE_NAMES, StageTimings

__all__ = [
    "format_table",
    "format_series",
    "format_breakdown",
    "render",
    "format_bootstrap_stats",
    "format_partition_stats",
    "format_scrub_stats",
]

#: section names accepted by :func:`render`, in display order
SECTIONS = ("summary", "partition", "scrub", "bootstrap", "replicas", "trace")


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: str = "",
    floatfmt: str = "{:.1f}",
) -> str:
    """Render an aligned text table."""
    rendered_rows = [
        [floatfmt.format(cell) if isinstance(cell, float) else str(cell) for cell in row]
        for row in rows
    ]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in rendered_rows)) if rendered_rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    x_label: str,
    x_values: Sequence,
    series: Mapping[str, Sequence[float]],
    title: str = "",
    floatfmt: str = "{:.1f}",
) -> str:
    """Render one figure's data: x-axis column plus one column per curve.

    ``series`` maps a curve label (e.g. ``"SC-FINE"``) to its y-values,
    aligned with ``x_values``.
    """
    headers = [x_label, *series.keys()]
    rows = []
    for i, x in enumerate(x_values):
        rows.append([x, *(values[i] for values in series.values())])
    return format_table(headers, rows, title=title, floatfmt=floatfmt)


def format_breakdown(
    breakdowns: Mapping[str, StageTimings],
    title: str = "",
) -> str:
    """Render a Figure-4 style latency breakdown: one row per configuration,
    one column per stage."""
    headers = ["config", *STAGE_NAMES, "total"]
    rows = []
    for label, stages in breakdowns.items():
        d = stages.as_dict()
        rows.append([label, *(d[s] for s in STAGE_NAMES), stages.total])
    return format_table(headers, rows, title=title, floatfmt="{:.2f}")


def _render_partition(certifier: Mapping, balancer: Mapping, title: str = "") -> str:
    """One summary block plus one row per certifier shard."""
    lines = []
    if title:
        lines.append(title)
    lines.append(
        "partitions={}  single-commits={}  cross-commits={}  "
        "cross-shard-stalls={}  cross-dispatched={}".format(
            certifier.get("num_partitions", 1),
            certifier.get("single_partition_commits", 0),
            certifier.get("cross_partition_commits", 0),
            certifier.get("cross_shard_stalls", 0),
            balancer.get("cross_partition_dispatched", 0),
        )
    )
    lines.append(
        "departed-purged={}  stale-recovery-refusals={}".format(
            certifier.get("departed_purged", 0),
            certifier.get("stale_recovery_refusals", 0),
        )
    )
    shards = certifier.get("shards", {})
    if shards:
        versions = balancer.get("partition_versions", {})
        headers = ["shard", "certified", "aborts", "queue", "last_global", "v_ack"]
        rows = [
            [
                p,
                shard.get("certified", 0),
                shard.get("aborts", 0),
                shard.get("queue_length", 0),
                shard.get("last_global", 0),
                versions.get(p, 0),
            ]
            for p, shard in sorted(shards.items())
        ]
        lines.append(format_table(headers, rows))
    return "\n".join(lines)


def _render_scrub(scrub: Optional[Mapping], title: str = "") -> str:
    lines = []
    if title:
        lines.append(title)
    if scrub is None:
        lines.append("scrubbing disabled (scrub_interval_ms=None)")
        return "\n".join(lines)
    lines.append(
        "rounds={}  replies={}  skipped: unaligned={} unanswerable={}".format(
            scrub.get("scrub_rounds", 0),
            scrub.get("digest_replies", 0),
            scrub.get("unaligned_skips", 0),
            scrub.get("unanswerable_skips", 0),
        )
    )
    lines.append(
        "divergences={} (tables={})  quarantines={}  readmissions={}".format(
            scrub.get("divergences_detected", 0),
            scrub.get("diverged_tables_detected", 0),
            scrub.get("quarantines", 0),
            scrub.get("readmissions", 0),
        )
    )
    lines.append(
        "repairs={}  rows-repaired={}  mean-quarantine={:.1f}ms".format(
            scrub.get("repairs_completed", 0),
            scrub.get("rows_repaired", 0),
            scrub.get("mean_quarantine_ms", 0.0),
        )
    )
    quarantined = scrub.get("currently_quarantined", [])
    if quarantined:
        lines.append("still quarantined: " + ", ".join(quarantined))
    return "\n".join(lines)


def _render_bootstrap(boot: Optional[Mapping], title: str = "") -> str:
    lines = []
    if title:
        lines.append(title)
    if boot is None:
        lines.append("replica lifecycle disabled (bootstrap_enabled=False)")
        return "\n".join(lines)
    lines.append(
        "bootstraps: started={} completed={}  rebootstraps={}".format(
            boot.get("bootstraps_started", 0),
            boot.get("bootstraps_completed", 0),
            boot.get("rebootstraps_triggered", 0),
        )
    )
    lines.append(
        "checkpoints: requested={} forwarded={}  catch-up-rounds={}".format(
            boot.get("checkpoints_requested", 0),
            boot.get("checkpoints_forwarded", 0),
            boot.get("catch_up_rounds", 0),
        )
    )
    active = boot.get("active", [])
    if active:
        lines.append("still bootstrapping: " + ", ".join(active))
    return "\n".join(lines)


def _render_summary(snapshot: Mapping) -> str:
    kernel = snapshot.get("kernel") or {}
    return (
        "t={:.0f}ms  level={}  V_commit={}  horizon={}  "
        "certified={}  aborts={}  kernel-events={}".format(
            snapshot.get("time_ms", 0.0),
            snapshot.get("level", "?"),
            snapshot.get("commit_version", 0),
            snapshot.get("replication_horizon", 0),
            snapshot.get("certified", 0),
            snapshot.get("certification_aborts", 0),
            kernel.get("events_processed", 0),
        )
    )


def _render_replicas(replicas: Mapping) -> str:
    headers = ["replica", "v_local", "lag", "pending", "committed", "aborted", "crashed"]
    rows = [
        [
            name,
            r.get("v_local", 0),
            r.get("lag", 0),
            r.get("pending_refresh", 0),
            r.get("committed", 0),
            r.get("aborted", 0),
            r.get("crashed", False),
        ]
        for name, r in sorted(replicas.items())
    ]
    return format_table(headers, rows)


def _render_trace(trace: Optional[Mapping]) -> str:
    if not trace or not trace.get("enabled"):
        return "tracing disabled (trace_enabled=False)"
    return "tracing: spans={} dropped={} sample_rate={} sampled-requests={}".format(
        trace.get("spans", 0),
        trace.get("dropped", 0),
        trace.get("sample_rate", 1.0),
        trace.get("sampled_requests", 0),
    )


def _snapshot_of(source) -> Mapping:
    """Accept either a :class:`~repro.metrics.registry.MetricsRegistry` or a
    legacy ``ReplicatedDatabase.stats()`` mapping; return the legacy shape."""
    if hasattr(source, "tree"):  # a MetricsRegistry
        cert = source.tree("certifier", raw=True) or {}
        cluster = source.tree("cluster", raw=True) or {}
        return {
            "time_ms": cluster.get("time_ms", 0.0),
            "level": cluster.get("level", "?"),
            "commit_version": cert.get("commit_version", 0),
            "replication_horizon": cert.get("replication_horizon", 0),
            "certified": cert.get("certified", 0),
            "certification_aborts": cert.get("aborts", 0),
            "kernel": source.tree("kernel", raw=True),
            "partition": {
                "certifier": cert,
                "balancer": source.tree("balancer", raw=True) or {},
            },
            "scrub": source.tree("scrub", raw=True),
            "bootstrap": source.tree("bootstrap", raw=True),
            "replicas": source.tree("replica", raw=True) or {},
            "trace": source.tree("trace", raw=True),
        }
    return source


def render(source, sections: Sequence[str] = ("summary", "partition", "scrub", "bootstrap")) -> str:
    """Render an observability report from a metrics source.

    ``source`` is either a :class:`~repro.metrics.registry.MetricsRegistry`
    (e.g. ``cluster.metrics``) or a legacy
    :meth:`~repro.core.cluster.ReplicatedDatabase.stats` snapshot.
    ``sections`` picks which blocks to include, in order, from
    :data:`SECTIONS`. This supersedes the per-subsystem ``format_*_stats``
    helpers, which now delegate here.
    """
    unknown = [s for s in sections if s not in SECTIONS]
    if unknown:
        raise ValueError(f"unknown report sections {unknown!r}; choose from {SECTIONS}")
    snapshot = _snapshot_of(source)
    partition = snapshot.get("partition") or {}
    blocks = []
    for section in sections:
        if section == "summary":
            blocks.append(_render_summary(snapshot))
        elif section == "partition":
            blocks.append(
                _render_partition(
                    partition.get("certifier", {}),
                    partition.get("balancer", {}),
                    title="-- commit pipeline --",
                )
            )
        elif section == "scrub":
            blocks.append(_render_scrub(snapshot.get("scrub"), title="-- anti-entropy --"))
        elif section == "bootstrap":
            blocks.append(
                _render_bootstrap(snapshot.get("bootstrap"), title="-- replica lifecycle --")
            )
        elif section == "replicas":
            blocks.append(_render_replicas(snapshot.get("replicas") or {}))
        elif section == "trace":
            blocks.append(_render_trace(snapshot.get("trace")))
    return "\n".join(blocks)


# -- deprecated per-subsystem helpers (use render() instead) ------------------


def _deprecated(old: str, instead: str) -> None:
    warnings.warn(
        f"{old} is deprecated; use repro.metrics.report.{instead}",
        DeprecationWarning,
        stacklevel=3,
    )


def format_partition_stats(stats: Mapping, title: str = "") -> str:
    """Deprecated: use :func:`render` with ``sections=("partition",)``.

    ``stats`` is either the full cluster snapshot (the ``"partition"`` key
    is used) or that key's value directly.
    """
    _deprecated("format_partition_stats", 'render(..., sections=("partition",))')
    partition = stats.get("partition", stats)
    return _render_partition(
        partition.get("certifier", {}), partition.get("balancer", {}), title=title
    )


def format_scrub_stats(stats: Mapping, title: str = "") -> str:
    """Deprecated: use :func:`render` with ``sections=("scrub",)``.

    ``stats`` is either the full cluster snapshot (the ``"scrub"`` key is
    used) or that key's value directly.
    """
    _deprecated("format_scrub_stats", 'render(..., sections=("scrub",))')
    scrub = stats.get("scrub", stats) if "scrub" in stats else stats
    return _render_scrub(scrub, title=title)


def format_bootstrap_stats(stats: Mapping, title: str = "") -> str:
    """Deprecated: use :func:`render` with ``sections=("bootstrap",)``.

    ``stats`` is either the full cluster snapshot (the ``"bootstrap"`` key
    is used) or that key's value directly.
    """
    _deprecated("format_bootstrap_stats", 'render(..., sections=("bootstrap",))')
    boot = stats.get("bootstrap", stats) if "bootstrap" in stats else stats
    return _render_bootstrap(boot, title=title)
