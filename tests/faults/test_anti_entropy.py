"""Fault-layer tests for the anti-entropy subsystem: the corruption
injector's contract, the seeded corruption nemesis audit, and refresh
idempotence under duplicated/reordered network delivery."""

import pytest

from repro import ClusterConfig, ReplicatedDatabase
from repro.faults import FaultInjector, Nemesis
from repro.faults.audit import audit
from repro.metrics import TRACER
from repro.middleware import HeartbeatSettings
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
        refresh on one of them must not show on the others.  Light scrubs:
        the incremental digests are what a doubled refresh leaves behind."""
        cluster = build(scrub_deep=False)
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


class TestRefreshFaultArming:
    """``skip_refresh`` / ``double_apply_refresh`` arm a one-shot fault on
    one replica's engine; no scrubber here, so nothing repairs it."""

    @pytest.fixture(autouse=True)
    def _clean_global_tracer(self):
        TRACER.disable()
        TRACER.reset()
        yield
        TRACER.disable()
        TRACER.reset()

    def cluster(self, **overrides):
        cluster = ReplicatedDatabase(
            MicroBenchmark(update_types=20, rows_per_table=100),
            ClusterConfig(num_replicas=3, seed=7, **overrides),
        )
        return cluster, FaultInjector(cluster), cluster.open_session("w")

    def commit(self, cluster, session, key):
        session.execute("micro-update-0", {"key": key})
        cluster.quiesce()
        return cluster.commit_version

    def victim(self, cluster):
        """A replica that only ever applies refreshes in these tests."""
        name = next(n for n, p in cluster.replicas.items() if p.committed_count == 0)
        return name, cluster.replicas[name]

    def origin_db(self, cluster):
        """The database of the replica the serial session executes on."""
        return next(
            p.engine.database for p in cluster.replicas.values() if p.committed_count
        )

    def test_fires_on_exactly_the_next_install_then_restores_itself(self):
        cluster, injector, session = self.cluster(trace_enabled=True)
        self.commit(cluster, session, 1)
        name, victim = self.victim(cluster)
        armed_at = cluster.env.now
        injector.skip_refresh(name)
        skipped = self.commit(cluster, session, 2)
        clean = self.commit(cluster, session, 3)
        # The record lives on the injector: (time, mode, version).
        (fired_at, mode, version), = injector.corrupted_applies
        assert (mode, version) == ("skip", skipped)
        assert armed_at < fired_at <= cluster.env.now
        assert "apply_refresh" not in vars(victim.engine)  # shadow gone
        healthy = self.origin_db(cluster)
        db = victim.engine.database
        assert db.version == healthy.version == clean
        assert db.table("t0").read(2, clean) != healthy.table("t0").read(2, clean)
        assert db.table("t0").read(3, clean) == healthy.table("t0").read(3, clean)
        # The corrupted install still emits its one refresh.apply instant.
        for v in (skipped, clean):
            applies = [
                span for span in TRACER.spans_for_version(v)
                if span.name == "refresh.apply" and span.component == name
            ]
            assert len(applies) == 1

    def test_rearming_before_it_fires_replaces_the_mode(self):
        cluster, injector, session = self.cluster()
        self.commit(cluster, session, 1)
        name, victim = self.victim(cluster)
        injector.skip_refresh(name)
        injector.double_apply_refresh(name)
        doubled = self.commit(cluster, session, 2)
        self.commit(cluster, session, 3)
        assert [(m, v) for _t, m, v in injector.corrupted_applies] == [("double", doubled)]
        written = victim.engine.database.table("t0").read(2, doubled)
        assert written is not None  # the refresh applied, then rotted in place
        assert written != self.origin_db(cluster).table("t0").read(2, doubled)

    def test_armed_fault_survives_crash_and_recover(self):
        cluster, injector, session = self.cluster()
        self.commit(cluster, session, 1)
        name, victim = self.victim(cluster)
        injector.skip_refresh(name)
        injector.crash_replica(name)
        missed = self.commit(cluster, session, 2)
        assert injector.corrupted_applies == []  # down: nothing installed
        injector.recover_replica(name)
        cluster.quiesce()
        # The recovery replay's first install is the one that goes wrong.
        assert [(m, v) for _t, m, v in injector.corrupted_applies] == [("skip", missed)]
        assert victim.engine.database.table("t0").read(2, missed) != (
            self.origin_db(cluster).table("t0").read(2, missed)
        )


class TestCorruptionNemesis:
    """The headline robustness audit: a seeded nemesis injects silent
    corruption (plus crashes and partitions) while clients run; every
    divergence that persists must be detected, repaired online, and the
    cluster must end provably convergent with a green consistency audit."""

    def soak(self, seed, duration_ms=2_000.0):
        cluster = build(seed=seed, heartbeat=HeartbeatSettings(interval_ms=50.0))
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

        # 1. The safety audit: among its checks, every replica's
        #    recomputed digests match the certifier oracle at its version —
        #    the rescan proves no silent divergence survived, detected or
        #    self-healed — and no replica is still quarantined.
        report = audit(cluster)
        assert report.ok, report.failures

        # 2. Everything fenced was repaired and returned to rotation.
        assert stats["currently_quarantined"] == []
        assert stats["quarantines"] == stats["readmissions"]

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

    def test_corruption_off_by_default(self):
        cluster = build(seed=3, heartbeat=HeartbeatSettings(interval_ms=50.0))
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

        network = cluster.metrics.tree("network")
        assert network["injected"] > 0
        assert set(network["injected_by_reason"]) == {"duplicate", "reorder"}
        dedups = sum(
            p.duplicate_refreshes_ignored for p in cluster.replicas.values()
        )
        assert dedups > 0, "no duplicate refresh ever reached a replica"

        # Convergence and correctness despite the chaff: the audit (replicas
        # at the certifier's version, digest parity) and zero scrubber alarms.
        report = audit(cluster)
        assert report.ok, report.failures
        assert cluster.scrubber.stats()["divergences_detected"] == 0
