"""Paper-style result tables.

Helpers that render experiment results the way the paper presents them: one
row per configuration (or per x-axis point) with aligned numeric columns —
the same rows/series Figures 3–7 plot.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .stages import STAGE_NAMES, StageTimings

__all__ = [
    "format_table",
    "format_series",
    "format_breakdown",
    "render",
]


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


def _render_partition(certifier: Mapping) -> str:
    """One summary block plus one row per certifier shard."""
    lines = [
        "-- commit pipeline --",
        "partitions={num_partitions}  single-commits={single_partition_commits}  "
        "cross-commits={cross_partition_commits}  "
        "cross-shard-stalls={cross_shard_stalls}".format_map(certifier),
        "departed-purged={departed_purged}  "
        "stale-recovery-refusals={stale_recovery_refusals}".format_map(certifier),
    ]
    headers = ["shard", "certified", "aborts", "queue", "last_global"]
    rows = [
        [p, shard["certified"], shard["conflicts"], shard["queue_length"], shard["last_global"]]
        for p, shard in sorted(certifier["shard"].items())
    ]
    lines.append(format_table(headers, rows))
    return "\n".join(lines)


def _render_scrub(scrub: Optional[Mapping]) -> str:
    lines = ["-- anti-entropy --"]
    if scrub is None:
        lines.append("scrubbing disabled (scrub_interval_ms=None)")
        return "\n".join(lines)
    lines += [
        "rounds={rounds}  replies={digest_replies}  skipped: "
        "unaligned={unaligned_skips} unanswerable={unanswerable_skips}".format_map(scrub),
        "divergences={divergences_detected} (tables={diverged_tables_detected})  "
        "quarantines={quarantines}  readmissions={readmissions}".format_map(scrub),
        "repairs={repairs_completed}  rows-repaired={rows_repaired}  "
        "mean-quarantine={mean_quarantine_ms:.1f}ms".format_map(scrub),
    ]
    if scrub["currently_quarantined"]:
        lines.append("still quarantined: " + ", ".join(scrub["currently_quarantined"]))
    return "\n".join(lines)


def _render_bootstrap(boot: Optional[Mapping]) -> str:
    lines = ["-- replica lifecycle --"]
    if boot is None:
        lines.append("replica lifecycle disabled (bootstrap=None)")
        return "\n".join(lines)
    lines += [
        "bootstraps: started={bootstraps_started} completed={bootstraps_completed}  "
        "rebootstraps={rebootstraps_triggered}".format_map(boot),
        "checkpoints: requested={checkpoints_requested} "
        "forwarded={checkpoints_forwarded}  "
        "catch-up-rounds={catch_up_rounds}".format_map(boot),
    ]
    if boot["active"]:
        lines.append("still bootstrapping: " + ", ".join(boot["active"]))
    return "\n".join(lines)


def _render_summary(cluster: Mapping, certifier: Mapping, kernel: Mapping) -> str:
    return (
        "t={time_ms:.0f}ms  level={level}".format_map(cluster)
        + "  V_commit={commit_version}  horizon={replication_horizon}  "
        "certified={certified}  aborts={conflicts}".format_map(certifier)
        + "  kernel-events={events_processed}".format_map(kernel)
    )


def _render_replicas(replicas: Mapping) -> str:
    headers = ["replica", "v_local", "lag", "pending", "committed", "aborted", "crashed"]
    keys = ("v_local", "lag", "pending_refresh", "committed", "aborted", "crashed")
    rows = [[name, *(r[key] for key in keys)] for name, r in sorted(replicas.items())]
    return format_table(headers, rows)


def _render_trace(trace: Mapping) -> str:
    if not trace["enabled"]:
        return "tracing disabled (trace_enabled=False)"
    return (
        "tracing: spans={spans} dropped={dropped} sample_rate={sample_rate} "
        "sampled-requests={sampled_requests}".format_map(trace)
    )


#: section name -> (renderer, the registry subtrees it reads), in display order
_SECTION_RENDERERS = {
    "summary": (_render_summary, ("cluster", "certifier", "kernel")),
    "partition": (_render_partition, ("certifier",)),
    "scrub": (_render_scrub, ("scrub",)),
    "bootstrap": (_render_bootstrap, ("bootstrap",)),
    "replicas": (_render_replicas, ("replica",)),
    "trace": (_render_trace, ("trace",)),
}
#: section names accepted by :func:`render`, in display order
SECTIONS = tuple(_SECTION_RENDERERS)


def render(registry, sections: Sequence[str] = ("summary", "partition", "scrub", "bootstrap")) -> str:
    """Render an observability report from a metrics registry.

    ``registry`` is a :class:`~repro.metrics.registry.MetricsRegistry`
    (e.g. ``cluster.metrics``); ``sections`` picks which blocks to include,
    in order, from :data:`SECTIONS`.  The renderers read the canonical names
    of docs/OBSERVABILITY.md straight from ``registry.tree(name)``.
    """
    unknown = [s for s in sections if s not in SECTIONS]
    if unknown:
        raise ValueError(f"unknown report sections {unknown!r}; choose from {SECTIONS}")
    blocks = []
    for section in sections:
        renderer, subtrees = _SECTION_RENDERERS[section]
        blocks.append(renderer(*map(registry.tree, subtrees)))
    return "\n".join(blocks)
