"""Extension bench — the relaxed-currency dial.

The paper contrasts its techniques with the relaxed-currency model ([6],
[21]) where clients tolerate bounded staleness.  Our RELAXED level
implements it: transactions wait only until ``V_local ≥ V_system − k``.
This bench sweeps the freshness bound k and shows the consistency/latency
dial: k=0 behaves exactly like SC-COARSE (zero staleness, full start
delay); growing k trades staleness for smaller start delays until, at large
k, the system behaves like the unsynchronized BASELINE.
"""

from conftest import emit

from repro.core.cluster import ClusterConfig, ReplicatedDatabase
from repro.histories import staleness_report
from repro.metrics import MetricsCollector, format_table
from repro.workloads import MicroBenchmark

BOUNDS = (0, 2, 5, 10, 25)


def run_sweep():
    rows = []
    for bound in BOUNDS:
        cluster = ReplicatedDatabase(
            MicroBenchmark(update_types=20, rows_per_table=500),
            ClusterConfig(
                num_replicas=8,
                level=f"relaxed:{bound}",
                seed=1,
            ),
        )
        collector = MetricsCollector(measure_start=1_000.0, measure_end=5_000.0)
        cluster.add_clients(16, collector)
        cluster.run(5_000.0)
        summary = collector.summary()
        report = staleness_report(cluster.history)
        rows.append([
            bound,
            summary.tps,
            summary.mean_response_ms,
            summary.read_only_breakdown.version,
            report["mean"],
            report["max"],
        ])
    return rows


def test_extension_relaxed_currency(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    text = format_table(
        ["bound k", "TPS", "resp (ms)", "read start delay (ms)",
         "mean staleness", "max staleness"],
        rows,
        title="Extension — relaxed currency: freshness bound vs staleness "
              "(micro, 50% updates, 8 replicas)",
        floatfmt="{:.2f}",
    )
    emit("extension_relaxed", text)

    by_bound = {row[0]: row for row in rows}
    # The bound is enforced exactly: measured staleness never exceeds k.
    for bound in BOUNDS:
        assert by_bound[bound][5] <= bound
    # k = 0 gives zero staleness (degenerates to SC-COARSE).
    assert by_bound[0][5] == 0
    # Staleness grows with the bound; the start delay shrinks.
    assert by_bound[25][4] >= by_bound[2][4]
    assert by_bound[25][3] <= by_bound[0][3] + 0.05
