"""Extra bench — paired comparison on a recorded trace.

Records one transaction trace, then replays it verbatim under all four
configurations: every configuration executes the *identical* per-client
call sequences, so throughput/latency differences are attributable to the
consistency mechanisms alone (no workload-draw variance).  The paper's
ordering must hold under this tighter experiment too.
"""

from repro.bench.experiments import LEVELS
from repro.core.cluster import ClusterConfig, ReplicatedDatabase
from repro.metrics import MetricsCollector, format_table
from repro.workloads import MicroBenchmark, TraceRecorder


def record_trace():
    recorder = TraceRecorder(MicroBenchmark(update_types=10, rows_per_table=500))
    cluster = ReplicatedDatabase(
        recorder,
        ClusterConfig(num_replicas=8, level="session", seed=1),
    )
    cluster.add_clients(8, MetricsCollector())
    cluster.run(6_000.0)
    return recorder.freeze()


def run_paired():
    trace = record_trace()
    rows = []
    for level in LEVELS:
        trace.reset()
        cluster = ReplicatedDatabase(
            trace, ClusterConfig(num_replicas=8, level=level, seed=1)
        )
        collector = MetricsCollector(measure_start=1_000.0, measure_end=5_000.0)
        cluster.add_clients(8, collector)
        cluster.run(5_000.0)
        summary = collector.summary()
        rows.append([
            level.label,
            summary.tps,
            summary.mean_response_ms,
            summary.p95_response_ms,
            summary.mean_sync_delay_ms,
        ])
    return rows


def test_paired_trace(benchmark):
    rows = benchmark.pedantic(run_paired, rounds=1, iterations=1)
    text = format_table(
        ["config", "TPS", "mean resp (ms)", "p95 resp (ms)", "sync delay (ms)"],
        rows,
        title="Paired trace replay — identical call sequences, 8 replicas, 25% updates",
        floatfmt="{:.2f}",
    )
    print()
    print(text)

    by_label = {row[0]: row for row in rows}
    session_tps = by_label["SESSION"][1]
    # Lazy strong consistency within a few percent of session consistency —
    # now with the workload draw held fixed.
    for label in ("SC-COARSE", "SC-FINE"):
        assert abs(by_label[label][1] - session_tps) / session_tps < 0.08
    assert by_label["EAGER"][1] < 0.8 * session_tps
