"""Extra bench — TPC-C-lite under the four configurations.

Not a figure from the paper (its evaluation uses the micro-benchmark and
TPC-W), but the paper leans on TPC-C running serializably under GSI
(Section IV); this bench confirms the system sustains the full TPC-C mix —
92 % updates with a hot district row — and that the paper's ordering holds
on it too: lazy strong consistency ≈ session consistency, eager well
behind, with certification aborts concentrated on the contended district.
"""

from conftest import emit

from repro.bench.experiments import LEVELS
from repro.bench.runner import ExperimentConfig, run_experiment
from repro.metrics import format_table
from repro.workloads import TPCCBenchmark


def run_sweep():
    rows = []
    for level in LEVELS:
        result = run_experiment(
            ExperimentConfig(
                workload_factory=lambda: TPCCBenchmark(
                    num_warehouses=2,
                    districts_per_warehouse=8,
                    customers_per_district=20,
                    num_items=100,
                ),
                level=level,
                num_replicas=4,
                clients=20,
                warmup_ms=2_000.0,
                measure_ms=10_000.0,
                seed=0,
                retry_aborts=True,
            )
        )
        rows.append([
            level.label,
            result.tps,
            result.response_ms,
            result.sync_delay_ms,
            result.summary.aborted,
        ])
    return rows


def test_tpcc_contention(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    text = format_table(
        ["config", "TPS", "response (ms)", "sync delay (ms)", "aborts"],
        rows,
        title="TPC-C-lite, 4 replicas, 20 clients, retries on",
    )
    emit("tpcc_contention", text)

    by_label = {row[0]: row for row in rows}
    session_tps = by_label["SESSION"][1]
    for label in ("SC-COARSE", "SC-FINE"):
        assert abs(by_label[label][1] - session_tps) / session_tps < 0.15
    assert by_label["EAGER"][1] < 0.85 * session_tps
    # The hot district produces real aborts under every configuration.
    assert all(row[4] > 0 for row in rows)
