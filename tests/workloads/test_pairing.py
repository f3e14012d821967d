"""Runs at one seed are paired: every consistency level sees the same calls.

Each client draws its calls and think times from its own named streams, so
the same seed issues the same per-client call sequences under every level;
a comparison between levels carries no workload-draw variance.
"""

from collections import defaultdict

import pytest

from repro import ClusterConfig
from repro.bench import LEVELS, ExperimentConfig, run_experiment
from repro.workloads import MicroBenchmark, TPCCBenchmark, TPCWBenchmark


def recorded_calls(make_workload, level, retry_aborts):
    """Each client's drawn calls in one short run of ``level``."""
    calls = defaultdict(list)

    def factory():
        workload = make_workload()
        draw = workload.next_call

        def next_call(client_id, rng):
            call = draw(client_id, rng)
            calls[client_id].append(call)
            return call

        workload.next_call = next_call
        return workload

    run_experiment(ExperimentConfig(
        workload_factory=factory,
        cluster=ClusterConfig(num_replicas=2, level=level, seed=5, record_history=False),
        clients=4, warmup_ms=0.0, measure_ms=2_500.0, retry_aborts=retry_aborts,
    ))
    return calls


WORKLOADS = {
    "micro-25pct": (lambda: MicroBenchmark(update_types=10, rows_per_table=50), False),
    "tpcw-shopping": (lambda: TPCWBenchmark(
        mix="shopping", num_items=60, num_customers=40, num_authors=20), False),
    "tpcc-retries": (lambda: TPCCBenchmark(
        num_warehouses=1, districts_per_warehouse=4, customers_per_district=10,
        num_items=40), True),
}


class TestSameSeedPairing:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_levels_draw_the_same_calls(self, workload):
        make_workload, retry_aborts = WORKLOADS[workload]
        runs = [recorded_calls(make_workload, level, retry_aborts) for level in LEVELS]
        assert all(run.keys() == runs[0].keys() for run in runs)
        for client in runs[0]:
            common = min(len(run[client]) for run in runs)
            # a run can stop earlier in its sequence, never elsewhere in it
            assert common >= 5, (workload, client, common)
            assert all(run[client][:common] == runs[0][client][:common] for run in runs)
