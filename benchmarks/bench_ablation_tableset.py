"""Ablation (DESIGN.md D3) — table-set width vs the SC-FINE advantage.

SC-FINE's edge over SC-COARSE comes from transactions whose table-set is a
small subset of the database (Section III-C): they can start as soon as
*their* tables are current.  This ablation widens each micro-benchmark
transaction from 1 to all 4 tables: at width 4 every transaction's table-set
is the whole database and SC-FINE must degenerate to SC-COARSE.
"""

from conftest import emit

from repro.bench.runner import ExperimentConfig, run_experiment
from repro.core import resolve_policy
from repro.metrics import format_series
from repro.workloads import MicroBenchmark

WIDTHS = (1, 2, 4)


def run_sweep():
    series = {"SC-FINE version (ms)": [], "SC-COARSE version (ms)": []}
    for width in WIDTHS:
        for level in map(resolve_policy, ("sc-fine", "sc-coarse")):
            result = run_experiment(
                ExperimentConfig(
                    workload_factory=lambda: MicroBenchmark(
                        update_types=40,  # all-update mix maximizes waiting
                        rows_per_table=1_000,
                        tables_per_txn=width,
                    ),
                    level=level,
                    num_replicas=8,
                    clients=16,
                    warmup_ms=1_000.0,
                    measure_ms=4_000.0,
                    seed=0,
                )
            )
            key = f"{level.label} version (ms)"
            series[key].append(result.summary.update_breakdown.version)
    return series


def test_ablation_tableset(benchmark):
    series = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    text = format_series(
        "tables/txn", list(WIDTHS), series,
        title="Ablation D3 — table-set width (micro, 100% updates, 8 replicas)",
        floatfmt="{:.3f}",
    )
    emit("ablation_tableset", text)

    fine = series["SC-FINE version (ms)"]
    coarse = series["SC-COARSE version (ms)"]
    # Narrow table-sets: SC-FINE waits strictly less than SC-COARSE.
    assert fine[0] < coarse[0]
    # Full-width table-sets: the advantage (mostly) disappears.
    narrow_gap = coarse[0] - fine[0]
    wide_gap = coarse[-1] - fine[-1]
    assert wide_gap < narrow_gap
    assert fine[-1] > 0.6 * coarse[-1]
