"""Tests for the closed-loop client pool."""

import pytest

from repro import ReplicatedDatabase
from repro.metrics import MetricsCollector
from repro.workloads import MicroBenchmark


def cluster_with_clients(count, retry_aborts=False, **kwargs):
    workload = MicroBenchmark(update_types=20, rows_per_table=50)
    cluster = ReplicatedDatabase(
        workload, num_replicas=2, level="sc-coarse", seed=9, **kwargs
    )
    collector = MetricsCollector()
    cluster.add_clients(count, collector, retry_aborts=retry_aborts)
    return cluster, collector


class TestClientPool:
    def test_clients_generate_load(self):
        cluster, collector = cluster_with_clients(4)
        cluster.run(500.0)
        assert collector.samples
        assert cluster.client_pool.completed == len(collector.samples) + collector.discarded

    def test_client_ids_are_sessions(self):
        cluster, _ = cluster_with_clients(3)
        assert cluster.client_pool.client_ids == ["client-0", "client-1", "client-2"]

    def test_closed_loop_one_outstanding_per_client(self):
        """A client never has two requests in flight: committed sample count
        per client grows one at a time (ack times strictly ordered)."""
        cluster, collector = cluster_with_clients(1)
        cluster.run(300.0)
        acks = [s.ack_time for s in collector.samples]
        assert acks == sorted(acks)
        submits = [s.submit_time for s in collector.samples]
        for i in range(1, len(collector.samples)):
            assert submits[i] >= acks[i - 1]

    def test_samples_record_update_flag(self):
        cluster, collector = cluster_with_clients(4)
        cluster.run(500.0)
        kinds = {s.is_update for s in collector.samples}
        assert kinds == {True, False}

    def test_incremental_spawn(self):
        cluster, collector = cluster_with_clients(2)
        cluster.client_pool.spawn(3)
        assert len(cluster.client_pool.client_ids) == 5

    def test_retry_aborts_reissues_same_call(self):
        cluster, collector = cluster_with_clients(8, retry_aborts=True)
        cluster.run(1500.0)
        aborted = [s for s in collector.samples if not s.committed]
        # With retries enabled every aborted sample is followed by a retry
        # of the same template from the same virtual client; total committed
        # work continues after aborts.
        assert collector.samples[-1].committed or aborted


class TestBackoffDelay:
    def test_growth_is_exponential_in_attempts(self):
        from repro.workloads.clients import backoff_delay_ms

        delays = [backoff_delay_ms(attempt, rng=None) for attempt in (1, 2, 3, 4)]
        assert delays == [5.0, 10.0, 20.0, 40.0]

    def test_cap_bounds_the_delay(self):
        from repro.workloads.clients import backoff_delay_ms

        assert backoff_delay_ms(10, rng=None, cap_ms=100.0) == 100.0
        assert backoff_delay_ms(50, rng=None, cap_ms=100.0) == 100.0
        assert backoff_delay_ms(4, rng=None, cap_ms=30.0) == 30.0

    def test_jitter_spreads_but_never_exceeds_undithered_delay(self):
        from repro.sim.rng import RngRegistry
        from repro.workloads.clients import backoff_delay_ms

        rng = RngRegistry(42).stream("jitter")
        delays = {backoff_delay_ms(3, rng=rng) for _ in range(50)}
        assert len(delays) > 1  # actually jittered
        assert all(10.0 <= d <= 20.0 for d in delays)  # within [half, full]

    def test_zero_jitter_is_deterministic(self):
        """Without an rng no jitter is drawn: the delay is the undithered one."""
        from repro.workloads.clients import backoff_delay_ms

        assert backoff_delay_ms(2, rng=None) == 10.0
        assert backoff_delay_ms(2) == backoff_delay_ms(2, rng=None)

    def test_invalid_arguments_rejected(self):
        from repro.workloads.clients import backoff_delay_ms

        with pytest.raises(ValueError):
            backoff_delay_ms(0)

    def test_client_pool_uses_backoff_stream(self):
        """The clients' backoff is constants: a 5 ms first retry, doubling
        per attempt, capped at 100 ms."""
        from repro.workloads.clients import backoff_delay_ms

        delays = [backoff_delay_ms(a) for a in (1, 2, 3, 6)]
        assert delays == [5.0, 10.0, 20.0, 100.0]
        cluster, _ = cluster_with_clients(2, retry_aborts=True)
        assert not hasattr(cluster.client_pool, "retry_backoff_ms")

    def test_deterministic_under_fixed_rng(self):
        from repro.sim.rng import RngRegistry
        from repro.workloads.clients import backoff_delay_ms

        def sequence():
            rng = RngRegistry(7).stream("backoff")
            return [backoff_delay_ms(a, rng=rng) for a in range(1, 9)]

        assert sequence() == sequence()


class TestOpenLoopLoad:
    def make(self, rate_tps=500.0, seed=9, duration_ms=1_000.0, **kwargs):
        from repro.workloads.clients import OpenLoopLoad

        workload = MicroBenchmark(update_types=10, rows_per_table=50)
        cluster = ReplicatedDatabase(
            workload, num_replicas=2, level="sc-coarse", seed=seed
        )
        collector = MetricsCollector()
        load = OpenLoopLoad(
            cluster.env, cluster.network, cluster.workload, collector,
            rate_tps=rate_tps, rngs=cluster.rngs, **kwargs,
        )
        cluster.run(duration_ms)
        return cluster, collector, load

    def test_offered_load_tracks_rate_not_completions(self):
        cluster, collector, load = self.make(rate_tps=500.0)
        # Poisson arrivals at 500 tps over 1 s: the offered count is a
        # property of the rate alone (wide tolerance for the variance).
        assert 350 <= load.offered <= 650
        assert load.committed > 0

    def test_one_sample_per_logical_request(self):
        cluster, collector, load = self.make(rate_tps=300.0)
        assert load.completed == len(collector.samples) + collector.discarded
        assert load.committed == sum(1 for s in collector.samples if s.committed)

    def test_set_rate_zero_stops_arrivals(self):
        cluster, collector, load = self.make(rate_tps=500.0)
        before = load.offered
        load.set_rate(0.0)
        cluster.run(cluster.env.now + 500.0)
        # "Takes effect at the next arrival": the one already scheduled when
        # the rate changed may still fire, then the stream goes quiet.
        assert load.offered <= before + 1

    def test_runs_are_deterministic_in_seed(self):
        first = self.make(seed=13)[2]
        second = self.make(seed=13)[2]
        assert (first.offered, first.completed, first.committed) == (
            second.offered, second.completed, second.committed,
        )

    def test_validation(self):
        from repro.sim.kernel import Environment
        from repro.sim.network import Network
        from repro.sim.rng import RngRegistry
        from repro.sim import LatencyModel
        from repro.workloads.clients import OpenLoopLoad

        env = Environment()
        network = Network(env, RngRegistry(1).stream("net"), LatencyModel())
        workload = MicroBenchmark(update_types=10, rows_per_table=50)
        with pytest.raises(ValueError):
            OpenLoopLoad(env, network, workload, MetricsCollector(), rate_tps=-1.0)
        with pytest.raises(ValueError):
            OpenLoopLoad(env, network, workload, MetricsCollector(),
                         rate_tps=10.0, max_attempts=0)
