"""Units for the partitioned commit pipeline's middleware pieces.

Covers the :class:`~repro.core.partition.PartitionMap` contract, the
per-partition :class:`~repro.middleware.shards.CertifierShard` service slot,
the departed-replica horizon grace (the unbounded-pinning fix) and the
stale-recovery refusal that keeps that fix safe.
"""

import pytest

from repro.core.partition import PartitionMap
from repro.metrics import MetricsRegistry, render
from repro.middleware import (
    Certifier,
    CertifierPerformance,
    CertifyReply,
    CertifyRequest,
    RecoveryReply,
)
from repro.middleware.messages import CommitApplied, RecoveryRequest
from repro.sim import Environment, LatencyModel, Network, RngRegistry
from repro.storage.writeset import OpKind, WriteOp, WriteSet

from .conftest import low_variance_params


def update_ws(table, key):
    return WriteSet([WriteOp(table, key, OpKind.UPDATE, {"id": key, "v": 1})])


class TestPartitionMap:
    def test_trivial_map(self):
        pmap = PartitionMap(1)
        assert pmap.is_trivial
        assert pmap.partition_of("anything") == 0
        assert pmap.partitions_for(["a", "b"]) == (0,)

    def test_explicit_groups_pin_tables(self):
        pmap = PartitionMap(2, table_groups=(("a", "b"), ("c",)))
        assert pmap.partition_of("a") == 0
        assert pmap.partition_of("b") == 0
        assert pmap.partition_of("c") == 1
        assert not pmap.is_trivial

    def test_hash_fallback_is_stable_and_in_range(self):
        pmap = PartitionMap(4)
        for table in ("t0", "orders", "users"):
            first = pmap.partition_of(table)
            assert 0 <= first < 4
            assert pmap.partition_of(table) == first

    def test_partitions_for_is_sorted_and_deduplicated(self):
        pmap = PartitionMap(2, table_groups=(("a",), ("b",)))
        assert pmap.partitions_for(["b", "a", "b"]) == (0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionMap(0)
        with pytest.raises(ValueError):
            PartitionMap(1, table_groups=(("a",), ("b",)))  # more groups than n
        with pytest.raises(ValueError):
            PartitionMap(2, table_groups=(("a",), ("a",)))  # duplicate table


def bare_certifier(env, network, partition_map=None, **overrides):
    settings = dict(
        env=env,
        network=network,
        perf=CertifierPerformance(low_variance_params(), RngRegistry(1).stream("c")),
        replica_names=["replica-0", "replica-1"],
        level="sc-coarse",
        partition_map=partition_map,
    )
    settings.update(overrides)
    return Certifier(**settings)


def certify(env, network, certifier, txn_id, table, key, snapshot=0):
    network.send(
        "replica-0",
        certifier.name,
        CertifyRequest(
            txn_id=txn_id, origin="replica-0", snapshot_version=snapshot,
            writeset=update_ws(table, key), request_id=txn_id,
        ),
    )
    env.run()


def make_network(env):
    network = Network(
        env, RngRegistry(7).stream("net"), LatencyModel(base=0.05, jitter=0.0)
    )
    origin = network.register("replica-0")
    other = network.register("replica-1")
    return network, origin, other


class TestCertifierShard:
    """A shard is a service slot, its partition's newest commit and two
    counters; log and index are the certifier's, one each — these check what
    the shards derive from that one log."""

    def _two_shard_certifier(self):
        env = Environment()
        network, _, _ = make_network(env)
        pmap = PartitionMap(2, table_groups=(("t0",), ("t1",)))
        certifier = bare_certifier(env, network, partition_map=pmap)
        for txn, table in enumerate(("t0", "t1", "t1", "t0", "t1"), start=1):
            certify(env, network, certifier, txn, table, txn)
        return env, network, pmap, certifier

    def test_truncate_to_global_drops_prefix_and_marks_horizon(self):
        env, network, _, certifier = self._two_shard_certifier()
        for replica in ("replica-0", "replica-1"):
            network.send(replica, certifier.name, CommitApplied(replica, 3))
        env.run()
        # One horizon for the one log, whatever partition a version wrote.
        assert certifier.truncate_log() == 3
        assert certifier.first_replayable_version() == 4
        assert [e.commit_version for e in certifier.log] == [4, 5]
        # The surviving entries' slots are still indexed; dropped ones not.
        assert certifier._index.last_writer("t0", 4) == 4
        assert certifier._index.last_writer("t0", 1) == 0
        # A shard remembers its newest commit; nothing of it was a log.
        assert [s.last_global for s in certifier.shards.values()] == [4, 5]
        assert certifier.truncate_log() == 0  # nothing below the horizon left

    def test_rebuild_from_log_restores_index_and_last_global(self):
        env, network, pmap, certifier = self._two_shard_certifier()
        successor = bare_certifier(
            env, network, partition_map=pmap, name="certifier-2",
            log=certifier.log.clone(),
        )
        assert [s.last_global for s in successor.shards.values()] == [4, 5]
        assert successor._index.last_writer("t1", 3) == 3
        assert successor.decision_for(5) == 5
        assert successor.commit_version == 5


class TestDepartedGrace:
    """Regression for the unbounded horizon pinning: a departed replica's
    progress entry must stop capping the replication horizon (and blocking
    log truncation) once the configured grace elapses."""

    def test_legacy_default_pins_forever(self):
        env = Environment()
        network, _, _ = make_network(env)
        certifier = bare_certifier(env, network)  # departed_grace_ms=None
        for txn in range(1, 4):
            certify(env, network, certifier, txn, "t", txn)
        network.send("replica-0", certifier.name, CommitApplied("replica-0", 3))
        network.send("replica-1", certifier.name, CommitApplied("replica-1", 1))
        env.run()
        certifier.remove_replica("replica-1")
        assert certifier.replication_horizon() == 1
        env.run(until=env.now + 1_000_000.0)
        assert certifier.replication_horizon() == 1  # pinned forever
        assert certifier.departed_purged == 0

    def test_grace_unpins_horizon_and_truncation_proceeds(self):
        env = Environment()
        network, _, _ = make_network(env)
        certifier = bare_certifier(env, network, departed_grace_ms=500.0)
        for txn in range(1, 4):
            certify(env, network, certifier, txn, "t", txn)
        network.send("replica-0", certifier.name, CommitApplied("replica-0", 3))
        network.send("replica-1", certifier.name, CommitApplied("replica-1", 1))
        env.run()
        certifier.remove_replica("replica-1")
        departure = env.now
        assert certifier.replication_horizon() == 1
        assert certifier.truncate_log() == 1  # only below the pin
        env.run(until=departure + 499.0)
        assert certifier.replication_horizon() == 1  # still within grace
        env.run(until=departure + 500.0)
        assert certifier.replication_horizon() == 3  # pin released
        assert certifier.departed_purged == 1
        assert certifier.truncate_log() == 2
        assert certifier.stats()["departed_purged"] == 1

    def test_returning_replica_within_grace_is_not_purged(self):
        env = Environment()
        network, _, _ = make_network(env)
        certifier = bare_certifier(env, network, departed_grace_ms=500.0)
        certify(env, network, certifier, 1, "t", 1)
        network.send("replica-1", certifier.name, CommitApplied("replica-1", 1))
        env.run()
        certifier.remove_replica("replica-1")
        env.run(until=env.now + 100.0)
        certifier.add_replica("replica-1", applied_version=1)
        env.run(until=env.now + 1_000.0)
        assert certifier.departed_purged == 0
        assert "replica-1" in certifier.applied_versions


class TestStaleRecoveryRefusal:
    """A replica purged past and returning after its history was truncated
    must be refused re-admission instead of replayed with a hole."""

    def _truncated_partitioned_certifier(self):
        env = Environment()
        network, origin, other = make_network(env)
        pmap = PartitionMap(2, table_groups=(("t0",), ("t1",)))
        certifier = bare_certifier(
            env, network, partition_map=pmap, departed_grace_ms=100.0
        )
        for txn, table in enumerate(("t0", "t1", "t0", "t1"), start=1):
            certify(env, network, certifier, txn, table, txn)
        network.send("replica-0", certifier.name, CommitApplied("replica-0", 4))
        network.send("replica-1", certifier.name, CommitApplied("replica-1", 1))
        env.run()
        certifier.remove_replica("replica-1")
        env.run(until=env.now + 100.0)
        assert certifier.truncate_log() == 4  # grace released the pin
        return env, network, certifier, other

    def test_stale_returnee_is_refused(self):
        env, network, certifier, other = self._truncated_partitioned_certifier()
        network.send("replica-1", certifier.name, RecoveryRequest("replica-1", 1))
        env.run()
        assert certifier.stale_recovery_refusals == 1
        assert "replica-1" not in certifier.replica_names
        replies = []
        while len(other):
            replies.append(other.receive().value)
        # The refusal is machine-readable: no replay entries, but a reply
        # naming the reason and the first version still replayable so the
        # returnee can route itself to a checkpoint bootstrap.
        refusals = [r for r in replies if isinstance(r, RecoveryReply)]
        assert len(refusals) == 1
        assert refusals[0].bootstrap_required
        assert refusals[0].entries == ()
        assert refusals[0].first_replayable == 5

    def test_caught_up_returnee_is_replayed(self):
        env, network, certifier, other = self._truncated_partitioned_certifier()
        network.send("replica-1", certifier.name, RecoveryRequest("replica-1", 4))
        env.run()
        assert certifier.stale_recovery_refusals == 0
        assert "replica-1" in certifier.replica_names
        replies = [m for m in iter_mailbox(other) if isinstance(m, RecoveryReply)]
        assert len(replies) == 1
        assert replies[0].entries == ()


def iter_mailbox(mailbox):
    while len(mailbox):
        yield mailbox.receive().value


class TestPartitionedCertifierStats:
    def test_per_shard_counters_and_renderer(self):
        env = Environment()
        network, origin, _ = make_network(env)
        pmap = PartitionMap(2, table_groups=(("t0",), ("t1",)))
        certifier = bare_certifier(env, network, partition_map=pmap)
        for txn, table in enumerate(("t0", "t1", "t0"), start=1):
            certify(env, network, certifier, txn, table, txn)
        # A conflicting rewrite of a committed key from a stale snapshot.
        certify(env, network, certifier, 4, "t0", 1, snapshot=0)
        stats = certifier.stats()
        assert stats["num_partitions"] == 2
        assert stats["certified"] == 3
        assert stats["conflicts"] == 1
        assert stats["shard"][0]["certified"] == 2
        assert stats["shard"][0]["conflicts"] == 1
        assert stats["shard"][1]["certified"] == 1
        assert stats["shard"][0]["last_global"] == 3
        assert stats["shard"][1]["last_global"] == 2
        registry = MetricsRegistry()
        registry.register("certifier", certifier.stats)
        rendered = render(registry, sections=("partition",))
        assert "partitions=2" in rendered
        assert "shard" in rendered and "last_global" in rendered

    def test_abort_reports_first_conflicting_version(self):
        env = Environment()
        network, origin, _ = make_network(env)
        pmap = PartitionMap(2, table_groups=(("t0",), ("t1",)))
        certifier = bare_certifier(env, network, partition_map=pmap)
        certify(env, network, certifier, 1, "t0", 5)
        certify(env, network, certifier, 2, "t0", 5, snapshot=1)  # commits at 2
        drained = list(iter_mailbox(origin))
        certify(env, network, certifier, 3, "t0", 5, snapshot=0)
        replies = [m for m in iter_mailbox(origin) if isinstance(m, CertifyReply)]
        assert replies[-1].certified is False
        assert replies[-1].conflict_with == 1  # the *first* writer, not the last
