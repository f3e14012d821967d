"""Tests for the anti-entropy scrubber: detection, quarantine, online
repair and re-verified re-admission."""

import pytest

from repro import ClusterConfig, ReplicatedDatabase
from repro.faults import FaultInjector
from repro.middleware.scrubber import ScrubSettings
from repro.workloads import MicroBenchmark


def scrub_cluster(seed=7, **overrides):
    config = ClusterConfig.anti_entropy(num_replicas=3, seed=seed, **overrides)
    return ReplicatedDatabase(
        MicroBenchmark(update_types=20, rows_per_table=100), config
    )


def write_some(cluster, n=30):
    """Drive a burst of committed updates through one synchronous session
    (no background clients — nothing overwrites an injected corruption)."""
    session = cluster.open_session("writer")
    for i in range(n):
        session.execute("micro-update-0", {"key": i % 20 + 1})


class TestScrubSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScrubSettings(interval_ms=0)
        with pytest.raises(ValueError):
            ScrubSettings(reply_timeout_ms=0)
        with pytest.raises(ValueError):
            ScrubSettings(interval_ms=100.0, reply_timeout_ms=100.0)

    def test_config_rejects_bad_knobs_eagerly(self):
        with pytest.raises(ValueError):
            ClusterConfig(scrub_interval_ms=50.0, scrub_reply_timeout_ms=60.0)
        with pytest.raises(ValueError):
            ClusterConfig(net_duplicate_prob=2.0)


class TestCleanRuns:
    def test_no_false_positives_under_load(self):
        cluster = scrub_cluster()
        cluster.add_clients(8, retry_aborts=True)
        cluster.run(2_000.0)
        stats = cluster.scrubber.stats()
        assert stats["rounds"] >= 8
        assert stats["digest_replies"] >= 3 * 8
        assert stats["divergences_detected"] == 0
        assert stats["quarantines"] == 0
        assert cluster.load_balancer.quarantine_count == 0

    def test_scrubber_absent_when_disabled(self):
        cluster = ReplicatedDatabase(
            MicroBenchmark(update_types=20, rows_per_table=100),
            ClusterConfig(num_replicas=3, seed=7),
        )
        assert cluster.scrubber is None
        assert cluster.metrics.tree("scrub") is None

    def test_digests_are_not_maintained_without_a_scrubber(self):
        """No scrubber, no digest bookkeeping on the apply path — and the
        replicas still agree under the full-scan oracle."""
        cluster = ReplicatedDatabase(
            MicroBenchmark(update_types=20, rows_per_table=100),
            ClusterConfig(num_replicas=3, seed=7),
        )
        cluster.add_clients(6, retry_aborts=True)
        cluster.run(600.0)
        cluster.quiesce()
        assert cluster.commit_version > 50
        databases = [p.engine.database for p in cluster.replicas.values()]
        for database in databases:
            assert not any(database._pending_digest_ops.values())
            assert database.digests() == database.recompute_digests()
        assert all(
            d.recompute_digests() == databases[0].recompute_digests()
            for d in databases
        )

    def test_deep_scrubs_queue_no_digest_ops(self):
        """A deep scrub rescans every row, so nothing reads the incremental
        digests and the apply path queues no fold for them."""
        cluster = scrub_cluster()
        cluster.add_clients(6, retry_aborts=True)
        cluster.run(600.0)
        cluster.quiesce()
        assert cluster.commit_version > 50
        assert cluster.scrubber.stats()["rounds"] >= 2
        for proxy in cluster.replicas.values():
            database = proxy.engine.database
            assert not any(database._pending_digest_ops.values())
            assert not database.maintain_digests

    def test_light_digests_equal_the_oracle_with_a_scrubber(self):
        cluster = scrub_cluster(scrub_deep=False)
        cluster.add_clients(6, retry_aborts=True)
        cluster.run(600.0)
        cluster.quiesce()
        assert cluster.commit_version > 50
        for proxy in cluster.replicas.values():
            database = proxy.engine.database
            assert database.maintain_digests
            assert database.digests() == database.recompute_digests()


class TestDetectionAndRepair:
    def run_fault(self, kind, *, deep=True, after_ms=1_200.0, **overrides):
        cluster = scrub_cluster(scrub_deep=deep, **overrides)
        injector = FaultInjector(cluster)
        write_some(cluster)
        detail = getattr(injector, kind)("replica-1")
        if kind != "corrupt_row":
            # skip/double arm the *next* refresh: push one more commit
            # through so the armed fault actually fires.
            session = cluster.open_session("trigger")
            session.execute("micro-update-1", {"key": 5})
        cluster.run(cluster.env.now + after_ms)
        return cluster, injector, detail

    def test_corrupt_row_detected_quarantined_repaired_readmitted(self):
        cluster, _inj, (table, _key) = self.run_fault("corrupt_row")
        scrubber = cluster.scrubber
        stats = scrubber.stats()
        assert stats["divergences_detected"] == 1
        assert stats["quarantines"] == 1
        assert stats["repairs_completed"] == 1
        assert stats["rows_repaired"] >= 1
        assert stats["readmissions"] == 1
        assert stats["currently_quarantined"] == []
        sequence = [(event, replica) for _t, event, replica, _d in scrubber.events]
        assert sequence == [
            ("quarantined", "replica-1"),
            ("repair-requested", "replica-1"),
            ("repaired", "replica-1"),
            ("readmitted", "replica-1"),
        ]
        quarantined_detail = scrubber.events[0][3]
        assert quarantined_detail["tables"] == (table,)

    def test_detection_latency_bounded_by_scrub_interval(self):
        cluster, injector, _ = self.run_fault("corrupt_row")
        injected_at = injector.corruptions[0][0]
        detected_at = cluster.scrubber.events[0][0]
        settings = cluster.config.scrub_settings
        # Worst case: the corruption lands just after a round's requests
        # went out — the *next* round detects it.
        assert detected_at - injected_at <= (
            2 * settings.interval_ms + settings.reply_timeout_ms
        )

    def test_skip_refresh_detected_and_repaired(self):
        cluster, _inj, _ = self.run_fault("skip_refresh")
        stats = cluster.scrubber.stats()
        assert stats["divergences_detected"] == 1
        assert stats["repairs_completed"] == 1
        assert stats["currently_quarantined"] == []

    def test_double_apply_detected_by_deep_scrub(self):
        cluster, _inj, _ = self.run_fault("double_apply_refresh")
        stats = cluster.scrubber.stats()
        assert stats["divergences_detected"] == 1
        assert stats["currently_quarantined"] == []

    def test_light_scrub_misses_bit_rot(self):
        """A light scrub answers from the incremental digests, which the
        in-place corruption bypassed — nothing is detected.  This is the
        documented trade-off that makes deep the default."""
        cluster, _inj, _ = self.run_fault("corrupt_row", deep=False)
        assert cluster.scrubber.stats()["divergences_detected"] == 0

    def test_light_scrub_still_catches_lost_applies(self):
        cluster, _inj, _ = self.run_fault("skip_refresh", deep=False)
        stats = cluster.scrubber.stats()
        assert stats["divergences_detected"] == 1
        assert stats["currently_quarantined"] == []

    def test_repaired_state_matches_oracle(self):
        cluster, _inj, _ = self.run_fault("corrupt_row")
        tracker = cluster.certifier.digest_tracker
        for proxy in cluster.replicas.values():
            db = proxy.engine.database
            assert db.recompute_digests() == tracker.expected_at(db.version)

    def test_auto_repair_off_detects_and_fences_only(self):
        cluster, _inj, _ = self.run_fault(
            "corrupt_row", scrub_auto_repair=False
        )
        stats = cluster.scrubber.stats()
        assert stats["divergences_detected"] == 1
        assert stats["repairs_completed"] == 0
        # Nothing overwrites the corrupt row, so the replica stays fenced.
        assert stats["currently_quarantined"] == ["replica-1"]
        assert cluster.load_balancer.quarantined_replicas == {"replica-1"}


class TestQuarantineRouting:
    def test_quarantined_replica_serves_no_client_requests(self):
        cluster = scrub_cluster(scrub_auto_repair=False)
        injector = FaultInjector(cluster)
        write_some(cluster)
        injector.corrupt_row("replica-1")
        cluster.run(cluster.env.now + 600.0)  # detection + fencing
        assert cluster.load_balancer.quarantined_replicas == {"replica-1"}
        before = cluster.replicas["replica-1"].committed_count
        cluster.add_clients(6, retry_aborts=True)
        cluster.run(cluster.env.now + 1_000.0)
        # The fenced replica applied refreshes but committed no client work.
        assert cluster.replicas["replica-1"].committed_count == before
        assert sum(
            p.committed_count for p in cluster.replicas.values()
        ) > before

    def test_unquarantine_resumes_routing(self):
        cluster = scrub_cluster()
        balancer = cluster.load_balancer
        balancer.quarantine_replica("replica-0")
        assert balancer.quarantined_replicas == {"replica-0"}
        balancer.unquarantine_replica("replica-0")
        assert balancer.quarantined_replicas == set()
        assert balancer.quarantine_count == 1

    def test_quarantine_is_idempotent(self):
        cluster = scrub_cluster()
        balancer = cluster.load_balancer
        balancer.quarantine_replica("replica-0")
        balancer.quarantine_replica("replica-0")
        assert balancer.quarantine_count == 1
