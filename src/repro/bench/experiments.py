"""The paper's experiments: one function per table/figure.

Every function regenerates the corresponding artifact's rows/series:

* :func:`table1` — Table I, database and table version maintenance;
* :func:`fig3`   — Figure 3, micro-benchmark throughput vs update mix;
* :func:`fig4`   — Figure 4, latency breakdown at 25 % / 100 % updates;
* :func:`fig5`   — Figure 5, TPC-W throughput and response time, scaled load;
* :func:`fig6`   — Figure 6, TPC-W synchronization delay, scaled load;
* :func:`fig7`   — Figure 7, TPC-W response time, fixed load.

The ablations and extensions of EXPERIMENTS.md (:func:`ablation_tableset`
to :func:`tpcc_contention`) take the same ``(quick, seed)``, and so do the
experiments beyond the paper: :func:`availability` measures throughput
around an injected replica crash, and :func:`saturation` /
:func:`retry_storm` drive the cluster past its capacity knee with an
open-loop generator to evaluate the overload-protection stack (see
``docs/TUNING.md``).  Every function is a figure of
:mod:`repro.bench.claims`, which says what each must show.

``quick=True`` (the default, used by ``repro claims``) shrinks the
warm-up/measurement windows and the sweep so a figure regenerates in tens of
seconds; ``quick=False`` runs the paper-scale sweep used for EXPERIMENTS.md.
Results from the TPC-W sweeps are cached per-process so Figures 5 and 6
share their runs, as they do in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.cluster import ClusterConfig, ReplicatedDatabase
from ..core.policy import ConsistencyPolicy, resolve_policy
from ..core.versions import VersionTracker
from ..histories.checkers import staleness_report
from ..metrics.collector import MetricsCollector
from ..metrics.report import format_breakdown, format_series, format_table
from ..metrics.stages import StageTimings
from ..middleware.perfmodel import PerformanceParams
from ..workloads.microbench import MicroBenchmark
from ..workloads.tpcc import TPCCBenchmark
from ..workloads.tpcw import TPCWBenchmark
from .runner import ExperimentConfig, ExperimentResult, run_experiment

__all__ = [
    "LEVELS",
    "SeriesResult",
    "BreakdownResult",
    "availability",
    "saturation",
    "retry_storm",
    "table1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "ablation_tableset",
    "ablation_early_certification",
    "ablation_replica_speed",
    "relaxed_currency",
    "tpcc_contention",
    "clear_cache",
]

#: the four configurations the paper evaluates, in its plotting order
LEVELS = tuple(map(resolve_policy, ("sc-coarse", "sc-fine", "session", "eager")))

#: clients per replica for the scaled-load TPC-W experiments (Section V-C.1)
TPCW_CLIENTS_PER_REPLICA = {"browsing": 10, "shopping": 8, "ordering": 5}


@dataclass
class SeriesResult:
    """One figure's data: x-axis plus one series per configuration."""

    title: str
    x_label: str
    x_values: list
    series: dict[str, list[float]]

    def render(self, floatfmt: str = "{:.1f}", chart: bool = True) -> str:
        """The paper-style data table, optionally followed by an ASCII plot
        of the same series (the figure itself)."""
        table = format_series(
            self.x_label, self.x_values, self.series, title=self.title,
            floatfmt=floatfmt,
        )
        if not chart:
            return table
        from ..metrics.ascii_chart import line_chart

        plot = line_chart(
            [float(x) for x in self.x_values],
            self.series,
            x_label=self.x_label,
        )
        return table + "\n\n" + plot

    def value(self, label: str, x) -> float:
        """Convenience lookup: the series value at one x point."""
        return self.series[label][self.x_values.index(x)]


@dataclass
class BreakdownResult:
    """Figure-4 style data: per-configuration stage breakdowns."""

    title: str
    breakdowns: dict[str, StageTimings]
    read_only_breakdowns: dict[str, StageTimings] = field(default_factory=dict)

    def render(self) -> str:
        parts = [format_breakdown(self.breakdowns, title=self.title)]
        if self.read_only_breakdowns:
            parts.append(
                format_breakdown(
                    self.read_only_breakdowns,
                    title=f"{self.title} — read-only transactions",
                )
            )
        return "\n\n".join(parts)


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------

def table1(quick: bool = True, seed: int = 0) -> str:
    """Reproduce Table I: version maintenance for T1..T6 on tables A, B, C.

    Deterministic, so ``quick`` and ``seed`` (which every figure takes) are
    ignored.  Exercises :class:`VersionTracker` exactly as the paper's
    walkthrough does, then shows the SC-FINE vs SC-COARSE start version for
    the final transaction T6 (which accesses table A only).
    """
    tracker = VersionTracker()
    transactions = [
        ("T1", {"A"}),
        ("T2", {"B", "C"}),
        ("T3", {"B"}),
        ("T4", {"C"}),
        ("T5", {"B", "C"}),
        ("T6", {"A"}),
    ]
    rows = []
    footer = ""
    for name, tables in transactions:
        if name == "T6":
            # The paper's punchline: T6 accesses table A only, so SC-FINE
            # lets it start at V_local >= V_A = 1 while SC-COARSE demands
            # the full V_system = 5.
            fine = resolve_policy("sc-fine").start_version(tracker, table_set=tables)
            coarse = resolve_policy("sc-coarse").start_version(tracker)
            footer = (
                f"\nT6 (table A only) start requirement: SC-FINE V_local >= {fine}, "
                f"SC-COARSE V_local >= {coarse}."
            )
        commit_version = tracker.v_system + 1
        tracker.observe_commit(commit_version, tables)
        rows.append(
            [
                name,
                ",".join(sorted(tables)),
                tracker.v_system,
                tracker.table_version("A"),
                tracker.table_version("B"),
                tracker.table_version("C"),
            ]
        )
    table = format_table(
        ["Transaction", "Updated tables", "V_system", "V_A", "V_B", "V_C"],
        rows,
        title="Table I — database and table versions",
    )
    return table + footer


# ---------------------------------------------------------------------------
# Micro-benchmark (Figures 3 and 4)
# ---------------------------------------------------------------------------

def _micro_config(
    level: ConsistencyPolicy,
    update_types: int,
    quick: bool,
    seed: int,
    num_replicas: int = 8,
    clients: int = 8,
    tables_per_txn: int = 1,
    params: Optional[PerformanceParams] = None,
) -> ExperimentConfig:
    rows = 1_000 if quick else 10_000
    return ExperimentConfig(
        workload_factory=lambda: MicroBenchmark(
            update_types=update_types, rows_per_table=rows,
            tables_per_txn=tables_per_txn,
        ),
        cluster=ClusterConfig(
            num_replicas=num_replicas, level=level, seed=seed, params=params,
            record_history=False,
        ),
        clients=clients,
        warmup_ms=1_000.0 if quick else 10_000.0,
        measure_ms=4_000.0 if quick else 30_000.0,
        label=f"micro-{update_types}/40-{level.label}",
    )


def fig3(
    quick: bool = True,
    seed: int = 0,
    update_types: Optional[Sequence[int]] = None,
) -> SeriesResult:
    """Figure 3: micro-benchmark throughput vs update mix, 8 replicas."""
    if update_types is None:
        update_types = (0, 10, 20, 30, 40) if quick else (0, 5, 10, 15, 20, 25, 30, 35, 40)
    series: dict[str, list[float]] = {level.label: [] for level in LEVELS}
    for count in update_types:
        for level in LEVELS:
            result = run_experiment(_micro_config(level, count, quick, seed))
            series[level.label].append(result.tps)
    return SeriesResult(
        title="Figure 3 — micro-benchmark throughput (TPS), 8 replicas",
        x_label="update%",
        x_values=[int(round(100 * c / 40)) for c in update_types],
        series=series,
    )


def fig4(quick: bool = True, seed: int = 0) -> dict[str, BreakdownResult]:
    """Figure 4: latency breakdown for the 25 % and 100 % update mixes."""
    results: dict[str, BreakdownResult] = {}
    for label, update_types in (("25% update mix", 10), ("100% update mix", 40)):
        update_breakdowns: dict[str, StageTimings] = {}
        read_breakdowns: dict[str, StageTimings] = {}
        for level in LEVELS:
            result = run_experiment(_micro_config(level, update_types, quick, seed))
            update_breakdowns[level.label] = result.summary.update_breakdown
            read_breakdowns[level.label] = result.summary.read_only_breakdown
        results[label] = BreakdownResult(
            title=f"Figure 4 — latency breakdown, {label} (update transactions, ms)",
            breakdowns=update_breakdowns,
            read_only_breakdowns=read_breakdowns,
        )
    return results


# ---------------------------------------------------------------------------
# TPC-W (Figures 5, 6 and 7)
# ---------------------------------------------------------------------------

_tpcw_cache: dict[tuple, ExperimentResult] = {}


def clear_cache() -> None:
    """Drop the per-process TPC-W result cache."""
    _tpcw_cache.clear()


def _tpcw_run(
    mix: str,
    level: ConsistencyPolicy,
    num_replicas: int,
    clients: int,
    quick: bool,
    seed: int,
) -> ExperimentResult:
    key = (mix, level, num_replicas, clients, quick, seed)
    if key not in _tpcw_cache:
        scale = 1 if quick else 2
        config = ExperimentConfig(
            workload_factory=lambda: TPCWBenchmark(
                mix=mix,
                num_items=300 * scale,
                num_customers=200 * scale,
                num_authors=100 * scale,
            ),
            cluster=ClusterConfig(
                num_replicas=num_replicas, level=level, seed=seed,
                record_history=False,
            ),
            clients=clients,
            warmup_ms=3_000.0 if quick else 10_000.0,
            measure_ms=12_000.0 if quick else 40_000.0,
            label=f"tpcw-{mix}-{level.label}-{num_replicas}r",
        )
        _tpcw_cache[key] = run_experiment(config)
    return _tpcw_cache[key]


def _replica_counts(quick: bool) -> list[int]:
    return [1, 2, 4, 8] if quick else [1, 2, 3, 4, 5, 6, 7, 8]


def fig5(
    quick: bool = True,
    seed: int = 0,
    mixes: Sequence[str] = ("browsing", "shopping", "ordering"),
) -> dict[str, dict[str, SeriesResult]]:
    """Figure 5: TPC-W throughput and response time under scaled load.

    Returns ``{mix: {"throughput": SeriesResult, "response": SeriesResult}}``
    covering sub-figures (a)–(f).
    """
    counts = _replica_counts(quick)
    results: dict[str, dict[str, SeriesResult]] = {}
    for mix in mixes:
        per_replica = TPCW_CLIENTS_PER_REPLICA[mix]
        tps: dict[str, list[float]] = {level.label: [] for level in LEVELS}
        resp: dict[str, list[float]] = {level.label: [] for level in LEVELS}
        for n in counts:
            for level in LEVELS:
                run = _tpcw_run(mix, level, n, per_replica * n, quick, seed)
                tps[level.label].append(run.tps)
                resp[level.label].append(run.response_ms)
        results[mix] = {
            "throughput": SeriesResult(
                title=f"Figure 5 — TPC-W {mix} mix throughput (TPS), scaled load",
                x_label="replicas",
                x_values=list(counts),
                series=tps,
            ),
            "response": SeriesResult(
                title=f"Figure 5 — TPC-W {mix} mix response time (ms), scaled load",
                x_label="replicas",
                x_values=list(counts),
                series=resp,
            ),
        }
    return results


def fig6(
    quick: bool = True,
    seed: int = 0,
    mixes: Sequence[str] = ("shopping", "ordering"),
) -> dict[str, SeriesResult]:
    """Figure 6: TPC-W synchronization delay under scaled load.

    Synchronization delay is the synchronization *start* delay for
    SC-COARSE/SC-FINE/SESSION and the *global commit* delay for EAGER.
    Shares its runs with Figure 5.
    """
    counts = _replica_counts(quick)
    results: dict[str, SeriesResult] = {}
    for mix in mixes:
        per_replica = TPCW_CLIENTS_PER_REPLICA[mix]
        series: dict[str, list[float]] = {level.label: [] for level in LEVELS}
        for n in counts:
            for level in LEVELS:
                run = _tpcw_run(mix, level, n, per_replica * n, quick, seed)
                series[level.label].append(run.sync_delay_ms)
        results[mix] = SeriesResult(
            title=f"Figure 6 — TPC-W {mix} mix synchronization delay (ms)",
            x_label="replicas",
            x_values=list(counts),
            series=series,
        )
    return results


def fig7(
    quick: bool = True,
    seed: int = 0,
    mixes: Sequence[str] = ("shopping", "ordering"),
) -> dict[str, SeriesResult]:
    """Figure 7: TPC-W response time under *fixed* load.

    The client count stays at the single-replica level (10/8/5 per mix)
    while replicas are added: replication now buys lower response time —
    except for EAGER on the ordering mix, where more replicas mean a larger
    global commit delay.
    """
    counts = _replica_counts(quick)
    results: dict[str, SeriesResult] = {}
    for mix in mixes:
        clients = TPCW_CLIENTS_PER_REPLICA[mix]
        series: dict[str, list[float]] = {level.label: [] for level in LEVELS}
        for n in counts:
            for level in LEVELS:
                run = _tpcw_run(mix, level, n, clients, quick, seed)
                series[level.label].append(run.response_ms)
        results[mix] = SeriesResult(
            title=f"Figure 7 — TPC-W {mix} mix response time (ms), fixed load",
            x_label="replicas",
            x_values=list(counts),
            series=series,
        )
    return results


# ---------------------------------------------------------------------------
# Design-choice ablations and extensions (DESIGN.md §5)
# ---------------------------------------------------------------------------

def _columns(title: str, x_label: str, x_values, names, rows) -> SeriesResult:
    """A sweep's table (one row per x) as one series per column."""
    return SeriesResult(title, x_label, list(x_values), dict(zip(names, map(list, zip(*rows)))))


def _closed_loop(workload_factory, cluster: ClusterConfig, quick_window, quick: bool):
    """16 clients on ``cluster``, measured over ``quick_window`` (warm-up,
    end) ms, or over 10 s / 40 s at full scale."""
    warmup_ms, end_ms = quick_window if quick else (10_000.0, 40_000.0)
    return run_experiment(ExperimentConfig(
        workload_factory=workload_factory, cluster=cluster, clients=16,
        warmup_ms=warmup_ms, measure_ms=end_ms - warmup_ms,
    ))


def ablation_tableset(quick: bool = True, seed: int = 0) -> SeriesResult:
    """Ablation D3: SC-FINE's and SC-COARSE's start delays by table-set width.

    At 4 tables per transaction every table-set is the whole database, so
    SC-FINE degenerates to SC-COARSE (Section III-C).
    """
    widths, levels = (1, 2, 4), tuple(map(resolve_policy, ("sc-fine", "sc-coarse")))
    rows = [[run_experiment(_micro_config(level, 40, quick, seed, clients=16, tables_per_txn=w))
             .summary.update_breakdown.version for level in levels] for w in widths]
    return _columns("Ablation D3 — table-set width (micro, 100% updates, 8 replicas)",
                    "tables/txn", widths, [f"{level.label} version (ms)" for level in levels], rows)


def ablation_early_certification(quick: bool = True, seed: int = 0) -> SeriesResult:
    """Ablation D4: where aborts happen, with early certification on and off.

    The proxy aborts a doomed transaction at its replica instead of paying
    for a certification that must fail (Section IV).
    """
    rows = []
    for enabled in (True, False):
        result = _closed_loop(
            lambda: MicroBenchmark(update_types=40, rows_per_table=60),
            ClusterConfig(num_replicas=4, level="sc-coarse", seed=seed,
                          early_certification=enabled),
            (500.0, 4_500.0), quick)
        rows.append((result.tps, result.summary.aborted, result.early_aborts,
                     result.certification_aborts))
    return _columns("Ablation D4 — early certification (micro, 100% updates, hot rows)",
                    "early-cert", ("on", "off"),
                    ["TPS", "client aborts", "early aborts", "certifier aborts"], rows)


def ablation_replica_speed(quick: bool = True, seed: int = 0) -> SeriesResult:
    """Ablation D1: replica speed heterogeneity at the 25 % micro mix.

    EAGER's commit round waits for the slowest replica (Section III-A); the
    lazy techniques wait only for the replica that received the transaction.
    """
    spreads, rows = (0.0, 0.25, 0.5, 1.0), []
    for spread in spreads:
        params = PerformanceParams(replica_speed_spread=spread)
        eager, coarse = (run_experiment(_micro_config(level, 10, quick, seed, params=params))
                         for level in map(resolve_policy, ("eager", "sc-coarse")))
        rows.append((eager.summary.update_breakdown.global_,
                     coarse.summary.update_breakdown.synchronization_delay, eager.tps, coarse.tps))
    return _columns("Ablation D1 — replica speed heterogeneity (micro, 25% updates, 8 replicas)",
                    "speed-spread", spreads,
                    ["EAGER global (ms)", "SC-COARSE sync (ms)", "EAGER TPS", "SC-COARSE TPS"], rows)


def relaxed_currency(quick: bool = True, seed: int = 0) -> SeriesResult:
    """Extension: the relaxed-currency dial ([6], [21] in the paper).

    ``relaxed:k`` trades staleness for start delay; ``relaxed:0`` is SC-COARSE.
    """
    bounds, rows = (0, 2, 5, 10, 25), []
    for bound in bounds:
        result = _closed_loop(
            lambda: MicroBenchmark(update_types=20, rows_per_table=500),
            ClusterConfig(num_replicas=8, level=f"relaxed:{bound}", seed=seed),
            (1_000.0, 5_000.0), quick)
        report = staleness_report(result.history)
        rows.append((result.tps, result.response_ms, result.summary.read_only_breakdown.version,
                     report["mean"], report["max"]))
    return _columns("Extension — relaxed currency: freshness bound vs staleness "
                    "(micro, 50% updates, 8 replicas)", "bound k", bounds,
                    ["TPS", "resp (ms)", "read start delay (ms)", "mean staleness",
                     "max staleness"], rows)


def tpcc_contention(quick: bool = True, seed: int = 0) -> SeriesResult:
    """Extension: TPC-C-lite under the four configurations.

    92 % updates, a hot district row, retries on; the paper leans on TPC-C
    running under GSI (Section IV), though it does not measure it.
    """
    results = [run_experiment(ExperimentConfig(
        workload_factory=lambda: TPCCBenchmark(num_warehouses=2, districts_per_warehouse=8,
                                               customers_per_district=20, num_items=100),
        cluster=ClusterConfig(num_replicas=4, level=level, seed=seed, record_history=False),
        clients=20, retry_aborts=True,
        warmup_ms=2_000.0 if quick else 10_000.0, measure_ms=10_000.0 if quick else 40_000.0,
    )) for level in LEVELS]
    return _columns("TPC-C-lite, 4 replicas, 20 clients, retries on", "config",
                    [level.label for level in LEVELS],
                    ["TPS", "response (ms)", "sync delay (ms)", "aborts"],
                    [(r.tps, r.response_ms, r.sync_delay_ms, r.summary.aborted) for r in results])




# ---------------------------------------------------------------------------
# Beyond the paper: availability and overload protection
# ---------------------------------------------------------------------------

#: the availability experiment's configurations and its timeline bucket
AVAILABILITY_LEVELS = ("sc-fine", "eager")
AVAILABILITY_BUCKET_MS = 100.0

#: the retry storm's offered loads (base, spike) and its timeline bucket
STORM_BASE_TPS, STORM_SPIKE_TPS, STORM_BUCKET_MS = 800.0, 8_000.0, 250.0


def availability(quick: bool = True, seed: int = 0) -> SeriesResult:
    """Availability around an injected replica crash, per configuration.

    A self-healing cluster (heartbeat detection, request deadlines, standby
    certifier) runs a mixed micro-benchmark; one replica crashes mid-run
    with **no oracle notification** — the middleware must detect it.  The
    experiment reports, per consistency level:

    * **detection latency** — crash until the balancer's monitor suspects;
    * **throughput dip** — the worst post-crash bucket vs the pre-crash
      baseline, and its depth in percent of the baseline;
    * **time to recover** — crash until bucketed throughput is back at 90 %
      of the baseline (``inf`` when it never is).

    The interesting contrast is SC-FINE vs EAGER: the eager protocol keeps
    every update waiting on the dead replica until the certifier excludes
    it, so its dip is total; the lazy levels keep committing on the
    surviving replicas throughout.
    """
    from ..faults.injector import FaultInjector

    warmup_ms = 800.0 if quick else 3_000.0
    crash_after_ms = 1_200.0 if quick else 4_000.0
    observe_ms = 2_000.0 if quick else 6_000.0
    victim, bucket_ms = "replica-1", AVAILABILITY_BUCKET_MS
    levels = tuple(map(resolve_policy, AVAILABILITY_LEVELS))

    rows = []
    for level in levels:
        config = ClusterConfig.self_healing(num_replicas=4, level=level, seed=seed)
        cluster = ReplicatedDatabase(
            MicroBenchmark(update_types=20, rows_per_table=1_000), config
        )
        collector = MetricsCollector(measure_start=warmup_ms)
        cluster.add_clients(12, collector, retry_aborts=True)
        injector = FaultInjector(cluster)

        cluster.run(warmup_ms + crash_after_ms)
        crash_at = cluster.env.now
        injector.crash_replica(victim)
        cluster.run(crash_at + observe_ms)

        monitor = cluster.load_balancer.monitor
        detection = monitor.suspect_times.get(victim, math.inf) - crash_at
        cluster.close()

        timeline = collector.timeline(bucket_ms=bucket_ms)
        before = [tps for start, tps in timeline if start + bucket_ms <= crash_at]
        after = [(start, tps) for start, tps in timeline if start >= crash_at]
        baseline = sum(before) / len(before) if before else 0.0
        dip = min((tps for _, tps in after), default=0.0)
        dip_index = next(
            (i for i, (_, tps) in enumerate(after) if tps == dip), 0
        )
        # Recovery is counted from the crash to the first bucket at or
        # after the worst one that is back above 90 % of the baseline.
        recovery = math.inf
        for start, tps in after[dip_index:]:
            if tps >= 0.9 * baseline:
                recovery = start + bucket_ms - crash_at
                break
        depth = 100.0 * (1.0 - dip / baseline) if baseline > 0 else 0.0
        rows.append((detection, baseline, dip, depth, recovery))

    return _columns(
        "Availability — replica crash with heartbeat detection "
        f"(4 replicas, 12 clients, crash at t={crash_after_ms:.0f}ms after warm-up)",
        "config", [level.label for level in levels],
        ["detect (ms)", "baseline tps", "dip tps", "dip depth (%)", "recover (ms)"], rows)


def _saturation_point(
    protected: bool, offered_tps: float, quick: bool, seed: int
) -> tuple[float, float, float]:
    from ..workloads.clients import OpenLoopLoad

    warmup_ms = 500.0 if quick else 2_000.0
    measure_ms = 2_500.0 if quick else 10_000.0
    make = ClusterConfig.overload_protected if protected else ClusterConfig
    config = make(num_replicas=3, level="sc-fine", seed=seed)
    cluster = ReplicatedDatabase(
        MicroBenchmark(update_types=10, rows_per_table=1_000), config
    )
    collector = MetricsCollector(
        measure_start=warmup_ms, measure_end=warmup_ms + measure_ms
    )
    load = OpenLoopLoad(
        cluster.env,
        cluster.network,
        cluster.workload,
        collector,
        rate_tps=offered_tps,
        rngs=cluster.rngs,
    )
    cluster.run(warmup_ms + measure_ms)
    cluster.close()
    summary = collector.summary()
    shed = cluster.metrics.get("balancer.shed") + cluster.metrics.get("balancer.deadline_shed")
    shed_rate = shed / load.offered if load.offered else 0.0
    return summary.tps, summary.p99_response_ms, shed_rate


def saturation(quick: bool = True, seed: int = 0) -> dict[str, SeriesResult]:
    """Open-loop saturation sweep: protection off vs on.

    Closed-loop clients self-throttle, so saturation collapse is invisible
    to them; here an :class:`~repro.workloads.clients.OpenLoopLoad` offers
    transactions at a fixed Poisson rate regardless of completions.  The
    ``unprotected`` arm is the plain configuration — past the capacity knee
    its replica queues grow without bound and the p99 response time of what
    *does* complete diverges.  The ``protected`` arm runs
    :meth:`ClusterConfig.overload_protected` (MPL cap, bounded admission
    queues, deadline shedding, certifier backpressure): goodput holds at
    capacity, p99 stays flat, and the overflow shows up as explicit
    fast-rejects instead of latency.

    Returns ``{"goodput" | "p99" | "shed": SeriesResult}``, one series per
    arm over the offered loads.  Each point is its own seeded cluster.
    """
    # The 3-replica quick cluster's capacity knee sits near 3,500 tps; the
    # sweep brackets it from both sides.
    loads = (
        (800.0, 1_600.0, 3_200.0, 4_800.0)
        if quick
        else (800.0, 1_600.0, 2_400.0, 3_200.0, 4_000.0, 4_800.0, 6_400.0)
    )
    arms = {"unprotected": False, "protected": True}
    points = [[_saturation_point(protected, offered, quick, seed)
               for protected in arms.values()] for offered in loads]
    title = "Saturation — open-loop offered load, 3 replicas, 25% update mix"
    curves = {"goodput": "goodput (committed TPS)", "p99": "p99 response (ms)",
              "shed": "shed fraction of offered load"}
    return {curve: _columns(f"{title} — {what}", "offered tps", loads, arms,
                            [[point[i] for point in row] for row in points])
            for i, (curve, what) in enumerate(curves.items())}


def retry_storm(quick: bool = True, seed: int = 0) -> SeriesResult:
    """Metastable retry storm: a transient spike with and without budgets.

    The classic metastable-failure shape (Bronson et al., HotOS'21): clients
    retry on timeout, and work done for a timed-out request is wasted — the
    replica still executes it, but the balancer has already given up on the
    attempt.  A load spike pushes queueing delay past the request deadline;
    from then on every request costs ``max_attempts`` executions, so the
    *sustained* load stays far above capacity even after the spike ends and
    goodput never comes back.  That is the ``budget-off`` arm.  The
    ``budget-on`` arm is identical except for a client retry budget
    (token bucket refilled by successes): once successes dry up the budget
    denies retries, offered work falls back to the base rate, the backlog
    drains, and goodput recovers.

    Both arms run a read-only mix with a request deadline and no balancer
    re-dispatch (``max_attempts=1``), so retries are purely the clients'
    doing — the only difference between the arms is the budget.  Each arm
    reports its mean goodput before the spike and in the post-spike tail,
    and the logical requests its retry budget abandoned.
    """
    from ..workloads.clients import OpenLoopLoad

    spike_start = 1_500.0 if quick else 4_000.0
    spike_ms = 1_000.0 if quick else 2_000.0
    tail_ms = 4_000.0 if quick else 12_000.0
    end = spike_start + spike_ms + tail_ms
    bucket_ms = STORM_BUCKET_MS
    arms: dict[str, Optional[float]] = {"budget-off": None, "budget-on": 0.1}

    rows = []
    for ratio in arms.values():
        config = ClusterConfig(
            num_replicas=3,
            level="sc-fine",
            seed=seed,
            request_deadline_ms=60.0,
            max_attempts=1,
        )
        cluster = ReplicatedDatabase(
            MicroBenchmark(update_types=0, rows_per_table=1_000), config
        )
        # A bounded window makes timeline() span the whole run even for an
        # arm whose goodput hits zero (zero buckets, not a truncated list).
        collector = MetricsCollector(measure_end=end)
        load = OpenLoopLoad(
            cluster.env,
            cluster.network,
            cluster.workload,
            collector,
            rate_tps=STORM_BASE_TPS,
            rngs=cluster.rngs,
            retry_aborts=True,
            max_attempts=12,
            retry_budget_ratio=ratio,
            retry_backoff_cap_ms=40.0,
        )
        cluster.run(spike_start)
        load.set_rate(STORM_SPIKE_TPS)
        cluster.run(spike_start + spike_ms)
        load.set_rate(STORM_BASE_TPS)
        cluster.run(end)
        cluster.close()

        timeline = collector.timeline(bucket_ms=bucket_ms)
        # Baseline skips the first 500 ms of warm-up transient; the tail is
        # the last third of the post-spike window.
        before = [
            tps
            for start, tps in timeline
            if start >= 500.0 and start + bucket_ms <= spike_start
        ]
        tail_window_start = end - tail_ms / 3.0
        after = [tps for start, tps in timeline if start >= tail_window_start]
        rows.append((sum(before) / len(before) if before else 0.0,
                     sum(after) / len(after) if after else 0.0, load.budget_denied))

    return _columns(
        "Retry storm — open-loop spike "
        f"({STORM_BASE_TPS:.0f} → {STORM_SPIKE_TPS:.0f} → {STORM_BASE_TPS:.0f} tps), "
        "3 replicas, read-only mix, 60 ms deadline",
        "arm", arms, ["baseline tps", "tail tps", "denied"], rows)
