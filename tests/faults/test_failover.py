"""Automatic certifier failover and update-fate resolution.

The standby tails the decision log over the network; when a majority of
replica proxies report their heartbeats to the primary timing out, it
promotes itself under a higher epoch.  The load balancer resolves the fate
of timed-out updates through the (surviving) certifier's decision log, so
an acknowledged commit is never doubled and never lost.
"""

import pytest

from repro import ClusterConfig, ReplicatedDatabase
from repro.faults import FaultInjector
from repro.faults.audit import audit
from repro.histories.checkers import strong_consistency_violations
from repro.middleware import CertifyReply
from repro.workloads import MicroBenchmark


def standby_cluster(seed=7, clients=6, **overrides):
    overrides.setdefault("num_replicas", 3)
    config = ClusterConfig.self_healing(seed=seed, level="sc-fine", **overrides)
    cluster = ReplicatedDatabase(
        MicroBenchmark(update_types=20, rows_per_table=100), config
    )
    collector = cluster.add_clients(clients, retry_aborts=True)
    return cluster, collector


class TestStandbyTailing:
    def test_standby_tracks_the_decision_log(self):
        cluster, _ = standby_cluster()
        cluster.run(600.0)
        standby = cluster.standby
        assert standby.records_applied > 0
        # Semi-synchronous shipping keeps the lag at most the in-flight
        # window; quiescing closes it completely.
        cluster.quiesce()
        assert standby.replicated_version == cluster.certifier.commit_version

    def test_standby_does_not_promote_unprovoked(self):
        cluster, _ = standby_cluster()
        cluster.run(1_000.0)
        assert not cluster.standby.promoted
        assert cluster.standby.votes == frozenset()


class TestAutomaticPromotion:
    def test_certifier_kill_promotes_standby(self):
        cluster, _ = standby_cluster()
        cluster.run(500.0)
        old = cluster.certifier
        killed_at = cluster.env.now
        injector = FaultInjector(cluster)
        injector.kill_certifier()
        cluster.run(1_500.0)
        standby = cluster.standby
        assert standby.promoted
        assert standby.promoted_at > killed_at
        successor = cluster.certifier
        assert successor is not old
        assert successor.name == "certifier-2"
        assert successor.epoch == 2
        # The successor's log contains every decision the primary released.
        assert successor.commit_version >= standby.replicated_version

    def test_promoted_certifier_keeps_the_backpressure_bound(self):
        """The successor is built by the cluster's one certifier factory, so
        the configured bound survives promotion: requests arriving behind a
        queue past it are shed with ``overloaded``, never silently queued."""
        cluster, _ = standby_cluster(clients=16, certifier_queue_bound=1)
        shed_by = []
        cluster.network.add_tap(
            lambda sender, _recipient, message: shed_by.append(sender)
            if isinstance(message, CertifyReply) and message.overloaded
            else None
        )
        cluster.run(500.0)
        FaultInjector(cluster).kill_certifier()
        cluster.run(1_500.0)
        assert cluster.standby.promoted
        successor = cluster.certifier
        assert successor.inbound_queue_bound == cluster.config.certifier_queue_bound == 1
        cluster.run(3_000.0)
        assert successor.backpressure_rejects > 0
        assert shed_by.count(successor.name) == successor.backpressure_rejects
        assert strong_consistency_violations(cluster.history) == []

    def test_commits_continue_after_automatic_failover(self):
        cluster, collector = standby_cluster()
        cluster.run(500.0)
        FaultInjector(cluster).kill_certifier()
        cluster.run(800.0)
        marker = cluster.commit_version
        cluster.run(2_000.0)
        assert cluster.commit_version > marker
        assert strong_consistency_violations(cluster.history) == []

    def test_no_acknowledged_commit_lost_across_failover(self):
        """Nor a fate-resolved (fenced) request committed: the whole audit."""
        cluster, _ = standby_cluster()
        cluster.run(500.0)
        FaultInjector(cluster).kill_certifier()
        cluster.run(2_000.0)
        cluster.quiesce(max_wait_ms=60_000.0)
        report = audit(cluster)
        assert report.ok, report.failures
        assert report.committed


class TestPromotedIndexEquivalence:
    """Promotion rebuilds the certification index from the tailed log; the
    successor must decide exactly as the reference scan would over the
    replicated window."""

    def test_promoted_certifier_rebuilds_index_and_matches_scan(self):
        import random

        from repro.middleware import CertifyRequest
        from repro.middleware.certindex import scan_first_conflict
        from repro.storage import OpKind, WriteOp, WriteSet

        cluster, _ = standby_cluster()
        cluster.run(500.0)
        FaultInjector(cluster).kill_certifier()
        cluster.run(1_500.0)
        successor = cluster.certifier
        assert cluster.standby.promoted
        assert len(successor._index) > 0
        assert successor.commit_version > 0

        # The reference scan over the successor's (tailed) log must report
        # the same first conflict as its rebuilt index for arbitrary probes.
        any_proxy = next(iter(cluster.replicas.values()))
        tables = sorted(any_proxy.engine.database.table_names)
        rng = random.Random(13)
        low = successor.log.truncation_version
        for request_id in range(200):
            ops = [
                WriteOp(rng.choice(tables), rng.randint(0, 120),
                        OpKind.UPDATE, {})
                for _ in range(rng.randint(1, 3))
            ]
            request = CertifyRequest(
                txn_id=10_000 + request_id,
                origin="probe",
                snapshot_version=rng.randint(low, successor.commit_version),
                writeset=WriteSet(ops),
                request_id=90_000 + request_id,
            )
            expected, _compared = scan_first_conflict(
                successor.log, request.writeset.slots, request.snapshot_version
            )
            assert successor._find_conflict(request) == expected


class TestManualFailover:
    """The injector's one-shot failover uses the same public state-transfer
    API as automatic promotion (no private-attribute pokes)."""

    def test_snapshot_restore_round_trip(self):
        cluster, _ = standby_cluster()
        cluster.run(400.0)
        state = cluster.certifier.snapshot_state()
        assert set(state) == {"replicas", "applied", "departed", "departed_since"}
        assert sorted(state["replicas"]) == sorted(cluster.replica_names)

    def test_manual_failover_bumps_epoch_and_continues(self):
        cluster, _ = standby_cluster()
        injector = FaultInjector(cluster)
        cluster.run(400.0)
        old_epoch = cluster.certifier.epoch
        successor = injector.failover_certifier()
        assert cluster.certifier is successor
        assert successor.epoch == old_epoch + 1
        before = cluster.commit_version
        cluster.run(1_500.0)
        assert cluster.commit_version > before


class TestInjectorValidation:
    def test_crash_unknown_replica_lists_known_names(self):
        cluster, _ = standby_cluster()
        injector = FaultInjector(cluster)
        with pytest.raises(ValueError) as excinfo:
            injector.crash_replica("replica-9")
        message = str(excinfo.value)
        assert "replica-9" in message
        for name in cluster.replica_names:
            assert name in message

    def test_recover_unknown_replica_lists_known_names(self):
        cluster, _ = standby_cluster()
        injector = FaultInjector(cluster)
        with pytest.raises(ValueError) as excinfo:
            injector.recover_replica("nonesuch")
        assert "known replicas" in str(excinfo.value)
