"""Ablation (DESIGN.md D1) — replica speed heterogeneity.

The eager approach's global commit delay is "dictated by the slowest
replica" (Section III-A).  This ablation varies the replica speed spread on
the micro-benchmark at a fixed 25 % update mix: with a homogeneous cluster
the slowest-replica penalty shrinks, and it grows with the spread — while
the lazy techniques are insensitive to it (they wait only for the single
receiving replica).
"""

from conftest import emit

from repro.bench.runner import ExperimentConfig, run_experiment
from repro.metrics import format_series
from repro.middleware.perfmodel import PerformanceParams
from repro.workloads import MicroBenchmark

SPREADS = (0.0, 0.25, 0.5, 1.0)


def run_sweep():
    series = {"EAGER global (ms)": [], "SC-COARSE sync (ms)": [],
              "EAGER TPS": [], "SC-COARSE TPS": []}
    for spread in SPREADS:
        params = PerformanceParams(replica_speed_spread=spread)
        for level in ("eager", "sc-coarse"):
            result = run_experiment(
                ExperimentConfig(
                    workload_factory=lambda: MicroBenchmark(
                        update_types=10, rows_per_table=1_000
                    ),
                    level=level,
                    num_replicas=8,
                    clients=8,
                    warmup_ms=1_000.0,
                    measure_ms=4_000.0,
                    seed=0,
                    params=params,
                )
            )
            if level == "eager":
                series["EAGER global (ms)"].append(result.summary.update_breakdown.global_)
                series["EAGER TPS"].append(result.tps)
            else:
                series["SC-COARSE sync (ms)"].append(
                    result.summary.update_breakdown.synchronization_delay
                )
                series["SC-COARSE TPS"].append(result.tps)
    return series


def test_ablation_replica_speed(benchmark):
    series = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    text = format_series(
        "speed-spread", list(SPREADS), series,
        title="Ablation D1 — replica speed heterogeneity (micro, 25% updates, 8 replicas)",
        floatfmt="{:.2f}",
    )
    emit("ablation_replica_speed", text)

    # The eager global delay grows with heterogeneity...
    assert series["EAGER global (ms)"][-1] > series["EAGER global (ms)"][0]
    # ...while the lazy sync delay stays small at every spread.
    assert all(v < series["EAGER global (ms)"][i]
               for i, v in enumerate(series["SC-COARSE sync (ms)"]))
    # Heterogeneity hurts EAGER much more than the lazy technique: a slower
    # replica slows *every* eager commit round, but only its own share of
    # lazy traffic.
    lazy_drop = series["SC-COARSE TPS"][0] / series["SC-COARSE TPS"][-1]
    eager_drop = series["EAGER TPS"][0] / series["EAGER TPS"][-1]
    assert eager_drop > lazy_drop * 1.15
