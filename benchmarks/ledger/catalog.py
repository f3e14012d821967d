"""The ledger's metric catalog: every name it prints, with unit, direction,
kind, and the prediction written down before measuring.

``kind`` says how two ledgers compare on the metric:

* ``host``  — host (simulator) time or memory; noisy, compared with the bound
  fixed in BENCHMARK.json, ``unresolved`` when the spread is wider;
* ``exact`` — simulated statistic or count from a seeded deterministic
  simulator; bit-identical across repetitions and across the traced and
  untraced passes, so any difference means the model changed;
* ``trace`` — host time from the single traced pass or an isolated probe;
  reported, never judged (no spread to judge it with).

``moves`` / ``on`` record which end-to-end metric a layer metric should move
and on which workload (README.md holds the reasoning).
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "Metric", "END_TO_END", "PER_LAYER", "BY_NAME", "SELF_TIME_LAYERS",
    "benchmark_json_lists",
]


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    kind: str
    moves: str = ""
    on: str = ""
    #: an end-to-end metric that is 0 on some workload, or whose value swings
    #: between seeds by more than any bound BENCHMARK.json may state, cannot
    #: carry a bound there and is listed under per_layer in that file; the
    #: ledger still prints and compares it as end-to-end (exact per seed)
    bounded: bool = True


END_TO_END = (
    Metric("setup_s", "s", "lower", "host"),
    Metric("wall_s", "s", "lower", "host"),
    Metric("sim_txn_per_wall_s", "txn/s", "higher", "host"),
    Metric("peak_rss_mb", "MB", "lower", "host"),
    Metric("sim_tps", "txn/sim_s", "higher", "exact"),
    Metric("sim_mean_response_ms", "sim_ms", "lower", "exact"),
    Metric("committed_share", "ratio", "higher", "exact"),
    Metric("sim_p50_response_ms", "sim_ms", "lower", "exact", bounded=False),
    Metric("sim_p99_response_ms", "sim_ms", "lower", "exact", bounded=False),
    Metric("sim_sync_delay_ms", "sim_ms", "lower", "exact", bounded=False),
    Metric("sim_unavailable_ms", "sim_ms", "lower", "exact", bounded=False),
    Metric("failed_share", "ratio", "lower", "exact", bounded=False),
)


def _layer(prefix: str, moves: str, on: str, *rows) -> tuple:
    return tuple(
        Metric(f"{prefix}{name}", unit, better, kind, moves, on)
        for name, unit, better, kind in rows
    )


PER_LAYER = (
    _layer(
        "core.cluster.", "setup_s", "micro-readonly, micro-update, fig5-sweep",
        ("build_s", "s", "lower", "trace"),
        ("populate_rows_per_s", "rows/s", "higher", "trace"),
    )
    + _layer(
        "sim.kernel.", "wall_s", "all; largest on micro-readonly, tpcw-shopping",
        ("self_s", "s", "lower", "trace"),
        ("events_per_txn", "count", "lower", "exact"),
        ("immediate_share", "ratio", "higher", "exact"),
        ("events_per_wall_s", "1/s", "higher", "trace"),
        ("probe_events_per_s", "1/s", "higher", "trace"),
    )
    + _layer(
        "sim.resources.", "wall_s; sim_tps saturation",
        "micro-readonly; little on tpcc-eager",
        ("self_s", "s", "lower", "trace"),
        ("requests_per_txn", "count", "lower", "exact"),
        ("cpu_utilization", "ratio", "lower", "exact"),
    )
    + _layer(
        "sim.network.", "wall_s", "micro-update, chaos-soak; little on tpcw-shopping",
        ("self_s", "s", "lower", "trace"),
        ("msgs_per_txn", "count", "lower", "exact"),
        ("dropped_share", "ratio", "lower", "exact"),
    )
    + _layer(
        "storage.engine.", "wall_s", "tpcw-shopping, tpcc-eager; little on micro-*",
        ("self_s", "s", "lower", "trace"),
        ("ops_per_txn", "count", "lower", "exact"),
        ("probe_reads_per_s", "1/s", "higher", "trace"),
    )
    + _layer(
        "storage.database.", "wall_s",
        "micro-update, tpcc-eager; 0 calls on micro-readonly",
        ("apply_self_s", "s", "lower", "trace"),
        ("applies_per_commit", "count", "lower", "exact"),
        ("rows_applied_per_wall_s", "rows/s", "higher", "trace"),
        ("probe_apply_rows_per_s", "rows/s", "higher", "trace"),
    )
    + _layer(
        "storage.digest.", "wall_s", "chaos-soak only (scrub on); 0 elsewhere",
        ("self_s", "s", "lower", "trace"),
        ("folds_per_commit", "count", "lower", "exact"),
        ("probe_folds_per_s", "1/s", "higher", "trace"),
    )
    + _layer(
        "storage.sql.", "none today", "no workload drives SQL",
        ("probe_executes_per_s", "1/s", "higher", "trace"),
        ("plan_cache_hit_rate", "ratio", "higher", "exact"),
    )
    + _layer(
        "middleware.loadbalancer.", "wall_s; sim_sync_delay_ms",
        "micro-readonly, tpcw-shopping",
        ("self_s", "s", "lower", "trace"),
        ("dispatched_per_txn", "count", "lower", "exact"),
        ("shed_share", "ratio", "lower", "exact"),
    )
    + _layer(
        "middleware.proxy.", "wall_s; sim_sync_delay_ms", "micro-update, tpcc-eager",
        ("self_s", "s", "lower", "trace"),
        ("refresh_applies_per_commit", "count", "lower", "exact"),
        ("early_abort_share", "ratio", "lower", "exact"),
        ("max_lag_versions", "count", "lower", "exact"),
        ("pending_refresh_max", "count", "lower", "exact"),
    )
    + _layer(
        "middleware.certifier.", "wall_s; failed_share",
        "micro-update (N=1), chaos-soak (N=4), tpcc-eager; 0 calls on micro-readonly",
        ("self_s", "s", "lower", "trace"),
        ("certify_per_txn", "count", "lower", "exact"),
        ("row_comparisons_per_certify", "count", "lower", "exact"),
        ("abort_share", "ratio", "lower", "exact"),
        ("cross_partition_share", "ratio", "lower", "exact"),
        ("cross_shard_stalls", "count", "lower", "exact"),
        ("probe_certify_per_s", "1/s", "higher", "trace"),
    )
    + _layer(
        "middleware.", "wall_s; sim_unavailable_ms", "chaos-soak only",
        ("control.self_s", "s", "lower", "trace"),
        ("heartbeat.pings_per_sim_s", "1/sim_s", "lower", "exact"),
        ("scrubber.rounds", "count", "higher", "exact"),
        ("scrubber.quarantine_ms_mean", "sim_ms", "lower", "exact"),
        ("standby.promotions", "count", "lower", "exact"),
        ("standby.failover_ms", "sim_ms", "lower", "exact"),
    )
    + _layer(
        "workloads.clients.", "wall_s",
        "micro-readonly, tpcw-shopping; retries on tpcc-eager",
        ("self_s", "s", "lower", "trace"),
        ("resumes_per_txn", "count", "lower", "exact"),
        ("retries_per_txn", "count", "lower", "exact"),
    )
    + _layer(
        "workloads.generator.", "wall_s", "tpcw-shopping",
        ("self_s", "s", "lower", "trace"),
    )
    + _layer(
        "metrics.", "wall_s", "micro-update",
        ("collector.self_s", "s", "lower", "trace"),
        ("tracing.on_1pct_wall_ratio", "ratio", "lower", "trace"),
        ("tracing.probe_records_per_s", "1/s", "higher", "trace"),
    )
    + _layer(
        "sim.stage.", "sim_mean_response_ms; sim_sync_delay_ms",
        "micro-update, tpcc-eager (only one with global_ms > 0)",
        ("version_ms", "sim_ms", "lower", "exact"),
        ("queries_ms", "sim_ms", "lower", "exact"),
        ("certify_ms", "sim_ms", "lower", "exact"),
        ("sync_ms", "sim_ms", "lower", "exact"),
        ("commit_ms", "sim_ms", "lower", "exact"),
        ("global_ms", "sim_ms", "lower", "exact"),
    )
    + _layer(
        "bench.experiments.", "wall_s", "fig5-sweep",
        ("cells", "count", "lower", "exact"),
        ("cell_wall_s_max", "s", "lower", "trace"),
        ("setup_share", "ratio", "lower", "trace"),
    )
    + _layer(
        "paper.fig5.", "none: accuracy against the paper, must not move",
        "fig5-sweep",
        ("scfine_scaling_8r", "ratio", "higher", "exact"),
        ("eager_scaling_8r", "ratio", "higher", "exact"),
        ("eager_vs_session_tps_8r", "ratio", "higher", "exact"),
    )
    + _layer(
        "bench.trace.", "none: the harness itself", "all",
        ("overhead_ratio", "ratio", "lower", "trace"),
        ("attributed_share", "ratio", "higher", "trace"),
    )
    + _layer(
        "bench.host.", "none: the box, not the program", "all",
        ("wall_raw_s", "s", "lower", "trace"),
        ("slowdown", "ratio", "lower", "trace"),
    )
)

BY_NAME = {metric.name: metric for metric in END_TO_END + PER_LAYER}

#: layers whose self time the traced pass reports; their sum over the wall
#: of ``Environment.run`` is ``bench.trace.attributed_share``
SELF_TIME_LAYERS = {
    "sim.kernel": "sim.kernel.self_s",
    "sim.resources": "sim.resources.self_s",
    "sim.network": "sim.network.self_s",
    "storage.engine": "storage.engine.self_s",
    "storage.database": "storage.database.apply_self_s",
    "storage.digest": "storage.digest.self_s",
    "middleware.loadbalancer": "middleware.loadbalancer.self_s",
    "middleware.proxy": "middleware.proxy.self_s",
    "middleware.certifier": "middleware.certifier.self_s",
    "middleware.control": "middleware.control.self_s",
    "workloads.clients": "workloads.clients.self_s",
    "workloads.generator": "workloads.generator.self_s",
    "metrics.collector": "metrics.collector.self_s",
}


def benchmark_json_lists(bounds: dict[str, float]) -> tuple[list, list]:
    """The ``end_to_end`` and ``per_layer`` lists BENCHMARK.json must hold
    for this catalog (``--smoke`` checks the file against them)."""
    end_to_end = [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": bounds[m.name]}
        for m in END_TO_END if m.bounded
    ]
    per_layer = [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in END_TO_END + PER_LAYER if not (m in END_TO_END and m.bounded)
    ]
    return end_to_end, per_layer
