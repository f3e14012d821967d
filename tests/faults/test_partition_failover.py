"""Failover of the partitioned certifier: log shipping, standby promotion
over the tailed log copy, and the nemesis gauntlet at 4 partitions.

The standby tails the same :class:`~repro.middleware.messages.DecisionRecord`
stream whatever the shard count — one whole-writeset entry per commit, which
at several shards also carries the predecessor vector — into its one
:class:`~repro.middleware.durability.DecisionLog` copy, and on promotion
hands it to the successor certifier together with the partition map — so
certification resumes with the index and every shard's newest commit rebuilt
and no acknowledged commit lost.
"""

import pytest

from repro import ClusterConfig, ReplicatedDatabase
from repro.faults import FaultInjector, Nemesis
from repro.faults.audit import audit
from repro.middleware import RefreshWriteset
from repro.sim.rng import RngRegistry
from repro.workloads import MicroBenchmark

GROUPS_4 = (("t0",), ("t1",), ("t2",), ("t3",))


def partitioned_standby_cluster(seed=7, clients=6, tables_per_txn=1, **overrides):
    overrides.setdefault("num_replicas", 3)
    config = ClusterConfig.self_healing(
        seed=seed,
        level="sc-fine",
        num_partitions=4,
        partition_table_groups=GROUPS_4,
        **overrides,
    )
    cluster = ReplicatedDatabase(
        MicroBenchmark(
            update_types=20, rows_per_table=100, tables_per_txn=tables_per_txn
        ),
        config,
    )
    collector = cluster.add_clients(clients, retry_aborts=True)
    return cluster, collector


class TestPartitionedStandbyTailing:
    def test_standby_copy_equals_the_primary_log_entry_for_entry(self):
        cluster, _ = partitioned_standby_cluster()
        cluster.run(600.0)
        standby = cluster.standby
        assert standby.records_applied > 0
        cluster.quiesce()
        assert standby.replicated_version == cluster.certifier.commit_version
        # The copy mirrors the primary's log exactly, predecessor vectors
        # included (LogEntry equality covers every field).
        copied, primary = list(standby.log), list(cluster.certifier.log)
        assert len(primary) > 50
        assert [e.commit_version for e in copied] == [
            e.commit_version for e in primary
        ]
        assert copied == primary
        assert all(e.prevs for e in copied)


class TestPartitionedPromotion:
    def test_certifier_kill_promotes_partitioned_standby(self):
        cluster, collector = partitioned_standby_cluster()
        cluster.run(500.0)
        FaultInjector(cluster).kill_certifier()
        cluster.run(2_000.0)
        assert cluster.standby.promoted
        successor = cluster.certifier
        assert successor.name == "certifier-2"
        assert set(successor.shards) == {0, 1, 2, 3}
        before = cluster.commit_version
        cluster.run(3_500.0)
        assert cluster.commit_version > before  # shards certify again
        cluster.quiesce(max_wait_ms=60_000.0)
        report = audit(cluster)
        assert report.ok, report.failures
        assert report.committed > 50

    def test_promotion_with_cross_partition_traffic(self):
        cluster, _ = partitioned_standby_cluster(seed=13, tables_per_txn=2)
        cluster.run(500.0)
        FaultInjector(cluster).kill_certifier()
        cluster.run(2_000.0)
        assert cluster.standby.promoted
        successor = cluster.certifier
        cluster.run(3_500.0)
        cluster.quiesce(max_wait_ms=60_000.0)
        report = audit(cluster)
        assert report.ok, report.failures
        assert successor.stats()["cross_partition_commits"] > 0


class TestManualFailover:
    def test_failover_certifier_builds_a_successor_of_the_same_shape(self):
        """The injector's successor comes from the cluster's own certifier
        factory: same shards, same bounds, the live digest tracker — so
        refreshes keep their predecessor vectors after the switchover."""
        cluster = ReplicatedDatabase(
            MicroBenchmark(update_types=20, rows_per_table=100),
            ClusterConfig(
                num_replicas=3, seed=7, level="sc-fine", num_partitions=4,
                partition_table_groups=GROUPS_4, certifier_queue_bound=64,
                departed_grace_ms=400.0, scrub_interval_ms=200.0,
            ),
        )
        cluster.add_clients(6, retry_aborts=True)
        cluster.run(400.0)
        old = cluster.certifier
        successor = FaultInjector(cluster).failover_certifier()
        assert set(successor.shards) == {0, 1, 2, 3}
        assert successor.inbound_queue_bound == 64
        assert successor.departed_grace_ms == 400.0
        assert successor.digest_tracker is old.digest_tracker is not None

        refreshes = []
        send = cluster.network.send

        def recording_send(sender, recipient, message):
            if isinstance(message, RefreshWriteset):
                refreshes.append(message)
            send(sender, recipient, message)

        cluster.network.send = recording_send
        before = cluster.commit_version
        cluster.run(1_500.0)
        cluster.quiesce(max_wait_ms=60_000.0)
        assert cluster.commit_version > before + 50
        assert refreshes and all(r.prev_versions for r in refreshes)
        # Digest parity, with every replica matching the live tracker's
        # expectation at V_commit, is part of the audit.
        report = audit(cluster)
        assert report.ok, report.failures
        assert cluster.load_balancer.quarantine_count == 0


class TestPartitionedNemesis:
    def chaos_run(self, seed):
        cluster, _ = partitioned_standby_cluster(seed=seed)
        nemesis = Nemesis(
            cluster,
            RngRegistry(seed).stream("nemesis"),
            duration_ms=2_000.0,
            injector=FaultInjector(cluster),
            kill_certifier=True,
        )
        cluster.run(2_700.0)
        cluster.quiesce(max_wait_ms=60_000.0)
        return cluster, nemesis

    @pytest.mark.parametrize("seed", [3, 19])
    def test_nemesis_soak_stays_green_at_4_partitions(self, seed):
        cluster, nemesis = self.chaos_run(seed)
        assert nemesis.finished
        report = audit(cluster)
        assert report.ok, report.failures
        assert report.committed > 100
        if nemesis.certifier_killed:
            assert cluster.standby.promoted
            assert len(cluster.certifier.shards) == 4

    def test_nemesis_certifier_kill_with_shard_promotion(self):
        """The acceptance scenario: chaos including a certifier kill, the
        standby promotes over its tailed log copy, and the full safety
        audit passes."""
        cluster, nemesis = self.chaos_run(19)
        assert nemesis.certifier_killed
        assert cluster.standby.promoted
        assert cluster.certifier.epoch == 2
        assert len(cluster.certifier.shards) == 4
        report = audit(cluster)
        assert report.ok, report.failures
