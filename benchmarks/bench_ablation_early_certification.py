"""Ablation (DESIGN.md D4) — early certification.

The proxy aborts doomed transactions early (Section IV's hidden-deadlock
prevention): client update statements are checked against pending refresh
writesets, and arriving refresh writesets abort conflicting active local
transactions — instead of paying a certification round trip that is
guaranteed to fail.  This ablation turns the whole mechanism off and
measures where aborts happen.
"""

from conftest import emit

from repro.metrics import format_table
from repro.workloads import MicroBenchmark


def run_pair():
    from repro.core.cluster import ClusterConfig, ReplicatedDatabase
    from repro.metrics import MetricsCollector

    rows = []
    for enabled in (True, False):
        # Conflict-heavy: 60-row tables, all-update mix.
        cluster = ReplicatedDatabase(
            MicroBenchmark(update_types=40, rows_per_table=60),
            ClusterConfig(
                num_replicas=4,
                level="sc-coarse",
                seed=2,
                early_certification=enabled,
            ),
        )
        collector = MetricsCollector(measure_start=500.0, measure_end=4_500.0)
        cluster.add_clients(16, collector)
        cluster.run(4_500.0)
        summary = collector.summary()
        early = sum(p.early_abort_count for p in cluster.replicas.values())
        rows.append([
            "on" if enabled else "off",
            summary.tps,
            summary.aborted,
            early,
            cluster.certifier.abort_count,
        ])
    return rows


def test_ablation_early_certification(benchmark):
    rows = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    text = format_table(
        ["early-cert", "TPS", "client aborts", "early aborts", "certifier aborts"],
        rows,
        title="Ablation D4 — early certification (micro, 100% updates, hot rows)",
    )
    emit("ablation_early_certification", text)

    with_early, without_early = rows
    # With early certification, conflicts die at the replica; without it,
    # every doomed transaction burns a certification round trip.
    assert with_early[3] > 0
    assert without_early[3] == 0
    assert with_early[4] < without_early[4]
