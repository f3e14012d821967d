"""Tests for fault injection: replica crash/recovery and certifier failover."""

import pytest

from repro.faults import FaultInjector
from repro.histories import is_strongly_consistent
from repro.metrics import MetricsCollector

from ..conftest import make_cluster


def loaded_cluster(level="sc-coarse", clients=8):
    cluster = make_cluster(level=level, num_replicas=3, rows=100)
    collector = MetricsCollector()
    cluster.add_clients(clients, collector)
    return cluster, collector


class TestReplicaCrash:
    def test_crash_marks_replica_down(self):
        cluster, _ = loaded_cluster()
        injector = FaultInjector(cluster)
        cluster.run(300.0)
        injector.crash_replica("replica-1")
        assert cluster.replica("replica-1").crashed
        assert injector.surviving_replicas() == ["replica-0", "replica-2"]

    def test_double_crash_rejected(self):
        cluster, _ = loaded_cluster()
        injector = FaultInjector(cluster)
        injector.crash_replica("replica-1")
        with pytest.raises(ValueError):
            injector.crash_replica("replica-1")

    def test_recover_unknown_rejected(self):
        cluster, _ = loaded_cluster()
        injector = FaultInjector(cluster)
        with pytest.raises(ValueError):
            injector.recover_replica("replica-1")

    def test_system_survives_crash(self):
        cluster, collector = loaded_cluster()
        injector = FaultInjector(cluster)
        cluster.run(300.0)
        before = cluster.commit_version
        injector.crash_replica("replica-1")
        cluster.run(800.0)
        assert cluster.commit_version > before  # commits continue

    def test_crashed_replica_falls_behind(self):
        cluster, _ = loaded_cluster()
        injector = FaultInjector(cluster)
        cluster.run(300.0)
        injector.crash_replica("replica-1")
        cluster.run(800.0)
        assert cluster.replica("replica-1").v_local < cluster.commit_version

    def test_recovery_catches_up(self):
        cluster, _ = loaded_cluster()
        injector = FaultInjector(cluster)
        cluster.run(300.0)
        injector.crash_replica("replica-1")
        cluster.run(700.0)
        injector.recover_replica("replica-1")
        lag_at_recovery = cluster.commit_version - cluster.replica("replica-1").v_local
        cluster.run(2_000.0)
        lag = cluster.commit_version - cluster.replica("replica-1").v_local
        assert lag < lag_at_recovery / 4  # caught up (applies faster than new commits)

    def test_strong_consistency_holds_across_crash_and_recovery(self):
        cluster, _ = loaded_cluster(level="sc-coarse")
        injector = FaultInjector(cluster)
        cluster.run(300.0)
        injector.crash_replica("replica-2")
        cluster.run(700.0)
        injector.recover_replica("replica-2")
        cluster.run(1_200.0)
        assert is_strongly_consistent(cluster.history)

    def test_fine_grained_strong_consistency_across_crash(self):
        cluster, _ = loaded_cluster(level="sc-fine")
        injector = FaultInjector(cluster)
        cluster.run(300.0)
        injector.crash_replica("replica-0")
        cluster.run(700.0)
        injector.recover_replica("replica-0")
        cluster.run(1_200.0)
        assert is_strongly_consistent(cluster.history)

    def test_recovered_replica_state_identical(self):
        cluster = make_cluster(level="sc-coarse", num_replicas=3, rows=30)
        injector = FaultInjector(cluster)
        session = cluster.open_session("writer")
        session.execute("micro-update-0", {"key": 1})
        injector.crash_replica("replica-1")
        for key in range(2, 12):
            session.execute("micro-update-1", {"key": key})
        injector.recover_replica("replica-1")
        cluster.quiesce()
        reference = cluster.replica(0).engine.database
        recovered = cluster.replica(1).engine.database
        assert recovered.version == reference.version == cluster.commit_version
        for table in reference.table_names:
            for row in reference.table(table).scan(reference.version):
                assert recovered.table(table).read(row["id"], recovered.version) == row


class TestEagerAvailability:
    def test_eager_blocks_on_dead_replica_without_exclusion(self):
        """The eager approach's availability weakness: keep the dead replica
        in the membership and update commits stop being acknowledged."""
        cluster, collector = loaded_cluster(level="eager", clients=4)
        injector = FaultInjector(cluster)
        cluster.run(300.0)
        injector.crash_replica("replica-1", exclude_from_membership=False)
        marker = len([s for s in collector.samples if s.is_update and s.committed])
        cluster.run(1_500.0)
        update_acks_after = (
            len([s for s in collector.samples if s.is_update and s.committed]) - marker
        )
        assert update_acks_after == 0

    def test_eager_continues_with_exclusion(self):
        cluster, collector = loaded_cluster(level="eager", clients=4)
        injector = FaultInjector(cluster)
        cluster.run(300.0)
        injector.crash_replica("replica-1", exclude_from_membership=True)
        marker = len([s for s in collector.samples if s.is_update and s.committed])
        cluster.run(1_500.0)
        update_acks_after = (
            len([s for s in collector.samples if s.is_update and s.committed]) - marker
        )
        assert update_acks_after > 0


class TestOverloadBurst:
    def test_burst_sends_requested_count_of_read_only_work(self):
        cluster = make_cluster(num_replicas=3, rows=50)
        injector = FaultInjector(cluster)
        before = cluster.replica("replica-1").committed_count
        sent = injector.overload("replica-1", requests=25)
        assert sent == 25
        cluster.run(500.0)
        # Read-only bursts execute on the target replica but never reach
        # certification: local commits rise, the global version does not.
        assert cluster.replica("replica-1").committed_count == before + 25
        assert cluster.commit_version == 0

    def test_responses_dropped_as_unknown_request_ids(self):
        cluster = make_cluster(num_replicas=3, rows=50)
        injector = FaultInjector(cluster)
        injector.overload("replica-0", requests=10)
        cluster.run(500.0)
        # The balancer never tracked these requests, so nothing leaks into
        # its outstanding table (or into the acknowledged history).
        assert cluster.load_balancer.outstanding_count == 0
        assert len(cluster.history) == 0

    def test_burst_uses_dedicated_deterministic_stream(self):
        """The burst draws from its own named stream ("injector:overload"),
        so identically seeded runs replay the same burst — and client
        streams are never consumed by it."""
        def run_once():
            cluster, collector = loaded_cluster(clients=4)
            injector = FaultInjector(cluster)
            cluster.run(300.0)
            injector.overload("replica-2", requests=30)
            cluster.run(1_500.0)
            return (
                cluster.commit_version,
                sum(p.committed_count for p in cluster.replicas.values()),
            )

        assert run_once() == run_once()

    def test_unknown_replica_rejected(self):
        cluster = make_cluster(num_replicas=3, rows=50)
        injector = FaultInjector(cluster)
        with pytest.raises(ValueError, match="unknown replica"):
            injector.overload("replica-9")

    def test_request_count_validated(self):
        cluster = make_cluster(num_replicas=3, rows=50)
        injector = FaultInjector(cluster)
        with pytest.raises(ValueError, match="requests"):
            injector.overload("replica-0", requests=0)


class TestCertifierFailover:
    def test_failover_preserves_decision_log(self):
        cluster, _ = loaded_cluster()
        injector = FaultInjector(cluster)
        cluster.run(400.0)
        version_before = cluster.commit_version
        standby = injector.failover_certifier()
        assert standby.commit_version == version_before
        assert cluster.certifier is standby

    def test_commits_continue_after_failover(self):
        cluster, _ = loaded_cluster()
        injector = FaultInjector(cluster)
        cluster.run(400.0)
        before = cluster.commit_version
        injector.failover_certifier()
        cluster.run(1_200.0)
        assert cluster.commit_version > before

    def test_strong_consistency_across_failover(self):
        cluster, _ = loaded_cluster(level="sc-coarse")
        injector = FaultInjector(cluster)
        cluster.run(400.0)
        injector.failover_certifier()
        cluster.run(1_200.0)
        assert is_strongly_consistent(cluster.history)

    def test_in_flight_certifications_abort_cleanly(self):
        cluster, collector = loaded_cluster()
        injector = FaultInjector(cluster)
        cluster.run(400.0)
        injector.failover_certifier()
        cluster.run(1_000.0)
        # Clients all received answers: nothing hangs.
        assert cluster.load_balancer.outstanding_count <= 8
