"""Cross-cutting integration tests: durability file sink, stats during
recovery, determinism of whole loaded runs."""

import random

import pytest

from repro import ClusterConfig, ReplicatedDatabase
from repro.faults import FaultInjector
from repro.metrics import MetricsCollector
from repro.middleware import (
    Certifier,
    CertifierPerformance,
    CertifyReply,
    CertifyRequest,
    DecisionLog,
)
from repro.sim import RngRegistry
from repro.storage import OpKind, WriteOp, WriteSet
from repro.workloads import MicroBenchmark

TABLE_GROUPS = {
    2: (("t0", "t1"), ("t2", "t3")),
    4: (("t0",), ("t1",), ("t2",), ("t3",)),
}


def build(tmp_path=None, **config):
    defaults = dict(num_replicas=3, level="sc-coarse", seed=17)
    defaults.update(config)
    workload = MicroBenchmark(update_types=20, rows_per_table=100)
    return ReplicatedDatabase(workload, ClusterConfig(**defaults))


def drain(mailbox):
    while len(mailbox):
        yield mailbox.receive().value


class TestDurableLogFile:
    def test_log_file_replays_to_identical_state(self, tmp_path):
        path = str(tmp_path / "decisions.log")
        cluster = build(log_path=path)
        session = cluster.open_session("writer")
        for key in range(1, 15):
            session.execute("micro-update-0", {"key": key % 20 + 1})
        cluster.certifier.log.close()

        # Rebuild a database from the on-disk log alone (disaster recovery).
        loaded = DecisionLog.load(path)
        assert loaded.last_version == cluster.commit_version
        from repro.storage import Database

        rebuilt = Database()
        for schema in cluster.workload.schemas():
            rebuilt.create_table(schema)
        cluster.workload.populate(
            rebuilt, __import__("repro.sim.rng", fromlist=["RngRegistry"])
            .RngRegistry(17).stream("populate"),
        )
        loaded.replay_into(rebuilt)
        reference = cluster.replica(0).engine.database
        cluster.quiesce()
        assert rebuilt.version == reference.version
        for table in reference.table_names:
            for row in reference.table(table).scan(reference.version):
                assert rebuilt.table(table).read(row["id"], rebuilt.version) == row


    @pytest.mark.parametrize("num_partitions", [2, 4])
    def test_sharded_certifier_logs_every_decision_and_recovers_from_the_file(
        self, tmp_path, num_partitions
    ):
        """The one decision log is the durability point for every shard
        count: each decision of a sharded certifier is on disk, the file
        round-trips the predecessor vectors, and a certifier rebuilt from it
        (index, request index, per-shard newest commits) decides the next
        requests exactly as the live one does."""
        path = str(tmp_path / "decisions.log")
        cluster = ReplicatedDatabase(
            # Two tables per transaction: single- and cross-partition commits.
            MicroBenchmark(update_types=20, rows_per_table=100, tables_per_txn=2),
            ClusterConfig(
                num_replicas=3, level="sc-coarse", seed=17,
                log_path=path, num_partitions=num_partitions,
                partition_table_groups=TABLE_GROUPS[num_partitions],
            ),
        )
        session = cluster.open_session("writer")
        for step in range(60):
            session.execute(f"micro-update-{step % 8}", {"key": step % 20 + 1})
        cluster.quiesce()
        live = cluster.certifier
        assert live.commit_version == 60

        loaded = DecisionLog.load(path)
        assert loaded.framed_lines_loaded == 60  # line for line, none refused
        assert [e.to_json() for e in loaded] == [e.to_json() for e in live.log]
        assert all(e.prevs for e in loaded)

        recovered = Certifier(
            env=cluster.env,
            network=cluster.network,
            perf=CertifierPerformance(cluster.params, RngRegistry(5).stream("c")),
            replica_names=[],
            level=live.policy,
            name="certifier-recovered",
            log=loaded,
            partition_map=live.partition_map,
        )
        assert recovered.commit_version == 60
        assert recovered.decision_for(live.log.entry(60).request_id) == 60
        assert [s.last_global for s in recovered.shards.values()] == [
            s.last_global for s in live.shards.values()
        ]

        probes = {
            certifier: cluster.network.register(f"probe-{certifier.name}")
            for certifier in (live, recovered)
        }
        rng = random.Random(3)
        v_commit, outcomes = 60, set()
        for request_id in range(900_001, 900_051):
            ops = []
            for table in rng.sample(["t0", "t1", "t2", "t3"], rng.randint(1, 2)):
                key = rng.randint(1, 8)
                ops.append(WriteOp(table, key, OpKind.UPDATE,
                                   {"id": key, "payload": request_id, "filler": "x"}))
            snapshot = max(0, v_commit - rng.randrange(6))
            for certifier, mailbox in probes.items():
                cluster.network.send(
                    mailbox.name, certifier.name,
                    CertifyRequest(
                        txn_id=request_id, origin=mailbox.name,
                        snapshot_version=snapshot, writeset=WriteSet(ops),
                        request_id=request_id,
                    ),
                )
            cluster.run(cluster.env.now + 50.0)
            decisions = []
            for mailbox in probes.values():
                (reply,) = [m for m in drain(mailbox) if isinstance(m, CertifyReply)]
                decisions.append((reply.certified, reply.commit_version,
                                  reply.conflict_with, reply.prev_versions))
            assert decisions[0] == decisions[1], f"diverged on {request_id}"
            outcomes.add(decisions[0][0])
            v_commit = decisions[0][1] or v_commit
        assert outcomes == {True, False}  # the probes commit *and* conflict
        assert DecisionLog.load(path).last_version == live.commit_version > 60


class TestStatsUnderFaults:
    def test_lag_visible_in_stats(self):
        cluster = build()
        cluster.add_clients(8, MetricsCollector())
        injector = FaultInjector(cluster)
        cluster.run(300.0)
        injector.crash_replica("replica-1")
        cluster.run(900.0)
        replicas = cluster.metrics.tree("replica")
        assert replicas["replica-1"]["crashed"]
        assert replicas["replica-1"]["lag"] > 0
        alive_lags = [
            replicas[name]["lag"]
            for name in ("replica-0", "replica-2")
        ]
        assert all(lag < replicas["replica-1"]["lag"] for lag in alive_lags)


class TestDeterminism:
    def test_identical_seeds_identical_loaded_runs(self):
        def run(seed):
            cluster = build(seed=seed)
            collector = MetricsCollector()
            cluster.add_clients(6, collector)
            cluster.run(800.0)
            summary = collector.summary(duration_ms=800.0)
            return (
                cluster.commit_version,
                summary.committed,
                summary.aborted,
                round(summary.mean_response_ms, 9),
            )

        assert run(123) == run(123)

    def test_history_replay_is_bit_identical(self):
        def history_tuple(seed):
            cluster = build(seed=seed)
            cluster.add_clients(6, MetricsCollector())
            cluster.run(600.0)
            return tuple(
                (r.request_id and 0, r.template, r.session_id, r.submit_time,
                 r.ack_time, r.committed, r.snapshot_version, r.commit_version)
                for r in cluster.history
            )

        assert history_tuple(9) == history_tuple(9)
