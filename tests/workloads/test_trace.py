"""Tests for trace recording and replay."""

import pytest

from repro import ClusterConfig, ReplicatedDatabase
from repro.metrics import MetricsCollector
from repro.sim import RngRegistry
from repro.workloads import MicroBenchmark, TraceRecorder, TraceWorkload


@pytest.fixture
def rng():
    return RngRegistry(8).stream("trace")


def recorded_trace(calls_per_client=10, clients=("client-0", "client-1"), rng=None):
    rng = rng if rng is not None else RngRegistry(8).stream("trace")
    recorder = TraceRecorder(MicroBenchmark(update_types=10, rows_per_table=50))
    for client in clients:
        for _ in range(calls_per_client):
            recorder.next_call(client, rng)
    return recorder


class TestRecorder:
    def test_records_per_client(self, rng):
        recorder = recorded_trace(rng=rng)
        trace = recorder.freeze()
        assert trace.clients == ("client-0", "client-1")
        assert trace.total_calls == 20

    def test_pass_through_preserves_calls(self, rng):
        inner = MicroBenchmark(update_types=10, rows_per_table=50)
        recorder = TraceRecorder(inner)
        call = recorder.next_call("c", rng)
        assert call.template in inner.catalog()
        assert recorder.calls["c"] == [call]

    def test_delegation(self, rng):
        recorder = TraceRecorder(MicroBenchmark(rows_per_table=10))
        assert len(list(recorder.schemas())) == 4
        assert recorder.think_time_ms("c", rng) == 0.0


class TestReplay:
    def test_replay_is_verbatim(self, rng):
        recorder = recorded_trace(rng=rng)
        trace = recorder.freeze()
        replayed = [trace.next_call("client-0", rng) for _ in range(10)]
        assert replayed == recorder.calls["client-0"]

    def test_replay_wraps_around(self, rng):
        trace = recorded_trace(calls_per_client=3, rng=rng).freeze()
        first_pass = [trace.next_call("client-0", rng) for _ in range(3)]
        second_pass = [trace.next_call("client-0", rng) for _ in range(3)]
        assert first_pass == second_pass

    def test_reset_rewinds(self, rng):
        trace = recorded_trace(calls_per_client=5, rng=rng).freeze()
        first = trace.next_call("client-0", rng)
        trace.next_call("client-0", rng)
        trace.reset()
        assert trace.next_call("client-0", rng) == first

    def test_unknown_client_borrows_a_recorded_sequence(self, rng):
        trace = recorded_trace(rng=rng).freeze()
        call = trace.next_call("client-999", rng)
        assert call.template  # served from some recorded client's sequence

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            TraceWorkload(MicroBenchmark(rows_per_table=10), {})
        with pytest.raises(ValueError):
            TraceWorkload(MicroBenchmark(rows_per_table=10), {"c": []})


class TestPersistence:
    def test_save_load_round_trip(self, rng, tmp_path):
        trace = recorded_trace(rng=rng).freeze()
        path = str(tmp_path / "trace.jsonl")
        trace.save(path)
        loaded = TraceWorkload.load(MicroBenchmark(update_types=10, rows_per_table=50), path)
        assert loaded.clients == trace.clients
        assert loaded.total_calls == trace.total_calls
        replay_rng = RngRegistry(1).stream("x")
        for client in trace.clients:
            trace.reset()
            a = [trace.next_call(client, replay_rng) for _ in range(5)]
            b = [loaded.next_call(client, replay_rng) for _ in range(5)]
            assert [c.template for c in a] == [c.template for c in b]
            assert [dict(c.params) for c in a] == [dict(c.params) for c in b]


class TestPairedComparison:
    def test_same_trace_across_levels_gives_identical_work(self):
        """Replaying one trace under two configurations issues the exact
        same transactions — the paired-comparison property."""
        base = MicroBenchmark(update_types=10, rows_per_table=50)
        recorder = TraceRecorder(base)
        seed_cluster = ReplicatedDatabase(
            recorder, ClusterConfig(num_replicas=2, seed=4,
                                    level="session"),
        )
        seed_cluster.add_clients(4, MetricsCollector())
        seed_cluster.run(400.0)
        trace = recorder.freeze()

        def committed_templates(level):
            trace.reset()
            cluster = ReplicatedDatabase(
                trace, ClusterConfig(num_replicas=2, seed=4, level=level),
            )
            collector = MetricsCollector()
            cluster.add_clients(4, collector)
            cluster.run(400.0)
            return [s.template for s in collector.samples][:50]

        session_run = committed_templates("session")
        coarse_run = committed_templates("sc-coarse")
        # The issued sequences coincide (completion order may differ at the
        # margin, but the per-client call streams are identical, so the
        # first samples line up).
        assert session_run[:20] == coarse_run[:20]
