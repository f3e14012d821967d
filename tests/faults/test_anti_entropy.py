"""Fault-layer tests for the anti-entropy subsystem: the corruption
injector's contract, the seeded corruption nemesis audit, and refresh
idempotence under duplicated/reordered network delivery."""

import pytest

from repro import ClusterConfig, ReplicatedDatabase
from repro.faults import FaultInjector, Nemesis
from repro.histories.checkers import strong_consistency_violations
from repro.sim.rng import RngRegistry
from repro.workloads import MicroBenchmark


def build(seed=7, num_replicas=3, **overrides):
    config = ClusterConfig.anti_entropy(
        num_replicas=num_replicas, seed=seed, **overrides
    )
    return ReplicatedDatabase(
        MicroBenchmark(update_types=20, rows_per_table=100), config
    )


class TestCorruptionInjector:
    def test_corrupt_row_picks_reproducible_target(self):
        a, b = build(seed=19), build(seed=19)
        for cluster in (a, b):
            session = cluster.open_session("w")
            for i in range(10):
                session.execute("micro-update-0", {"key": i + 1})
        target_a = FaultInjector(a).corrupt_row("replica-0")
        target_b = FaultInjector(b).corrupt_row("replica-0")
        assert target_a == target_b

    def test_corrupt_row_refuses_crashed_replica(self):
        cluster = build()
        injector = FaultInjector(cluster)
        injector.crash_replica("replica-2")
        with pytest.raises(ValueError):
            injector.corrupt_row("replica-2")

    def test_corrupt_row_refuses_unknown_replica(self):
        injector = FaultInjector(build())
        with pytest.raises(ValueError):
            injector.corrupt_row("replica-9")

    def test_corruption_stays_on_the_targeted_replica(self):
        """Replicas share the version-0 row images; bit rot and a doubled
        refresh on one of them must not show on the others."""
        cluster = build()
        injector = FaultInjector(cluster)
        databases = {
            name: proxy.engine.database for name, proxy in cluster.replicas.items()
        }
        clean = databases["replica-1"].recompute_digests()
        # A row no transaction has written yet: still the shared image.
        injector.corrupt_row("replica-0", table="t0", key=5)
        assert databases["replica-0"].recompute_digests() != clean
        assert databases["replica-1"].recompute_digests() == clean
        assert databases["replica-2"].recompute_digests() == clean
        injector.double_apply_refresh("replica-2")
        session = cluster.open_session("w")
        session.execute("micro-update-1", {"key": 9})
        cluster.quiesce()
        healthy = databases["replica-1"]
        assert healthy.recompute_digests() == healthy.digests()
        sick = databases["replica-2"]
        assert sick.recompute_digests() != sick.digests()
        assert sick.digests() == healthy.digests()

    def test_injections_are_recorded(self):
        cluster = build()
        session = cluster.open_session("w")
        session.execute("micro-update-0", {"key": 1})
        injector = FaultInjector(cluster)
        injector.corrupt_row("replica-0")
        injector.skip_refresh("replica-1")
        injector.double_apply_refresh("replica-2")
        kinds = [kind for _t, kind, _name, _d in injector.corruptions]
        assert kinds == ["corrupt_row", "skip_refresh", "double_apply_refresh"]


class TestCorruptionNemesis:
    """The headline robustness audit: a seeded nemesis injects silent
    corruption (plus crashes and partitions) while clients run; every
    divergence that persists must be detected, repaired online, and the
    cluster must end provably convergent with a green consistency audit."""

    def soak(self, seed, duration_ms=2_000.0):
        cluster = build(seed=seed, heartbeat_interval_ms=50.0)
        cluster.add_clients(6, retry_aborts=True)
        injector = FaultInjector(cluster)
        nemesis = Nemesis(
            cluster,
            RngRegistry(seed).stream("nemesis"),
            duration_ms=duration_ms,
            injector=injector,
            corruption=True,
            mean_interval_ms=130.0,
            kill_certifier=False,
        )
        # Generous fault-free tail: the scrubber needs a handful of rounds
        # after the chaos window to repair and re-verify everything.
        cluster.run(duration_ms + 2_500.0)
        cluster.quiesce(max_wait_ms=60_000.0)
        return cluster, injector, nemesis

    @pytest.mark.parametrize("seed", [3, 11, 23])
    def test_no_silent_divergence_survives(self, seed):
        cluster, injector, nemesis = self.soak(seed)
        assert nemesis.finished
        assert injector.corruptions, "seed injected no corruption; re-seed"
        scrubber = cluster.scrubber
        stats = scrubber.stats()

        # 1. End-state convergence: every replica's recomputed digests match
        #    the certifier oracle at its version — the rescan proves no
        #    silent divergence survived, detected or self-healed.
        tracker = cluster.certifier.digest_tracker
        for name, proxy in cluster.replicas.items():
            db = proxy.engine.database
            expected = tracker.expected_at(db.version)
            assert expected is not None
            assert db.recompute_digests() == expected, f"{name} diverged"

        # 2. Everything fenced was repaired and returned to rotation.
        assert stats["currently_quarantined"] == []
        assert stats["quarantines"] == stats["readmissions"]
        assert cluster.load_balancer.quarantined_replicas == set()

        # 3. Detection was bounded: each quarantine landed within two scrub
        #    rounds of the most recent corruption on that replica.
        settings = cluster.config.scrub_settings
        bound = 2 * settings.interval_ms + settings.reply_timeout_ms
        for time, event, replica, _detail in scrubber.events:
            if event != "quarantined":
                continue
            injected = [t for t, _k, name, _d in injector.corruptions
                        if name == replica and t <= time]
            assert injected, f"{replica} quarantined without injection"
            assert time - max(injected) <= bound + settings.interval_ms

        # 4. The safety audit stayed green throughout.
        assert strong_consistency_violations(cluster.load_balancer.history) == []

    def test_corruption_off_by_default(self):
        cluster = build(seed=3, heartbeat_interval_ms=50.0)
        cluster.add_clients(4, retry_aborts=True)
        injector = FaultInjector(cluster)
        nemesis = Nemesis(
            cluster,
            RngRegistry(3).stream("nemesis"),
            duration_ms=1_000.0,
            injector=injector,
            kill_certifier=False,
        )
        cluster.run(2_000.0)
        assert nemesis.finished
        assert injector.corruptions == []
        assert all(action != "corrupt" for _t, action, _d in nemesis.actions)


class TestRefreshDedupUnderDeliveryFaults:
    """Satellite: the proxy's ``Database.has_applied`` dedup must absorb
    duplicated and reordered refresh delivery — same converged state, no
    double-applies, consistency audit green."""

    def test_duplicated_and_reordered_refreshes_are_absorbed(self):
        cluster = ReplicatedDatabase(
            MicroBenchmark(update_types=20, rows_per_table=100),
            ClusterConfig.anti_entropy(
                num_replicas=3, seed=13,
                net_duplicate_prob=0.25, net_reorder_prob=0.25,
            ),
        )
        cluster.add_clients(8, retry_aborts=True)
        cluster.run(2_500.0)
        cluster.quiesce(max_wait_ms=60_000.0)

        network = cluster.stats()["network"]
        assert network["injected"] > 0
        assert set(network["injected_by_reason"]) == {"duplicate", "reorder"}
        dedups = sum(
            p.duplicate_refreshes_ignored for p in cluster.replicas.values()
        )
        assert dedups > 0, "no duplicate refresh ever reached a replica"

        # Convergence and correctness despite the chaff: replicas at the
        # certifier's version, digest parity, zero scrubber alarms.
        for proxy in cluster.replicas.values():
            assert proxy.engine.version == cluster.commit_version
        tracker = cluster.certifier.digest_tracker
        for proxy in cluster.replicas.values():
            db = proxy.engine.database
            assert db.recompute_digests() == tracker.expected_at(db.version)
        assert cluster.scrubber.stats()["divergences_detected"] == 0
        assert strong_consistency_violations(cluster.load_balancer.history) == []
