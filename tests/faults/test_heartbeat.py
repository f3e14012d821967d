"""Heartbeat failure detection: the suspicion state machine and the
end-to-end detection path (no oracle — the middleware notices on its own)."""

from repro import ClusterConfig, ReplicatedDatabase
from repro.faults import FaultInjector
from repro.middleware import HeartbeatAck, HeartbeatMonitor, HeartbeatPing, HeartbeatSettings
from repro.workloads import MicroBenchmark

from ..conftest import make_cluster
from ..middleware.conftest import fixed_latency_network


def self_healing_cluster(clients=6, **overrides):
    overrides.setdefault("num_replicas", 3)
    overrides.setdefault("seed", 7)
    cluster = ReplicatedDatabase(
        MicroBenchmark(update_types=20, rows_per_table=100),
        ClusterConfig.self_healing(**overrides),
    )
    collector = cluster.add_clients(clients, retry_aborts=True)
    return cluster, collector


class TestMonitorStateMachine:
    """Unit-level: a monitor against a scripted responder."""

    def _build(self, env, threshold=3, interval=10.0):
        network = fixed_latency_network(env)
        owner = network.register("owner")
        target = network.register("target")
        suspected, restored = [], []
        monitor = HeartbeatMonitor(
            env,
            network,
            owner="owner",
            targets=["target"],
            settings=HeartbeatSettings(interval_ms=interval, suspicion_threshold=threshold),
            on_suspect=lambda name: suspected.append((env.now, name)),
            on_restore=lambda name, ack: restored.append((env.now, name)),
        )
        alive = {"up": True}

        def responder():
            while True:
                ping = yield target.receive()
                if isinstance(ping, HeartbeatPing) and alive["up"]:
                    network.send("target", ping.sender, HeartbeatAck("target", ping.seq))

        def owner_loop():
            # In a real component the main loop feeds acks to the monitor.
            while True:
                message = yield owner.receive()
                if isinstance(message, HeartbeatAck):
                    monitor.observe_ack(message)

        env.process(responder(), name="responder")
        env.process(owner_loop(), name="owner-loop")
        return network, monitor, alive, suspected, restored

    def test_healthy_target_never_suspected(self, env):
        _, monitor, _, suspected, _ = self._build(env)
        env.run(until=500.0)
        assert suspected == []
        assert monitor.suspected == set()

    def test_suspicion_after_threshold_missed_heartbeats(self, env):
        _, monitor, alive, suspected, _ = self._build(env, threshold=3, interval=10.0)
        env.run(until=100.0)
        alive["up"] = False
        down_at = env.now
        env.run(until=300.0)
        assert len(suspected) == 1
        assert monitor.suspected == {"target"}
        # Detection latency is bounded: threshold+1 intervals plus slack for
        # the ack round trips in flight when the target died.
        latency = monitor.suspect_times["target"] - down_at
        assert latency <= 10.0 * (3 + 2)

    def test_restore_clears_suspicion_and_fires_hook(self, env):
        _, monitor, alive, suspected, restored = self._build(env)
        env.run(until=100.0)
        alive["up"] = False
        env.run(until=300.0)
        assert monitor.suspected == {"target"}
        alive["up"] = True
        env.run(until=400.0)
        assert monitor.suspected == set()
        assert len(restored) == 1
        assert restored[0][0] > suspected[0][0]

    def test_flicker_below_threshold_does_not_suspect(self, env):
        network, monitor, alive, suspected, _ = self._build(env, threshold=4, interval=10.0)
        env.run(until=100.0)
        alive["up"] = False
        env.run(until=125.0)  # ~2 missed beats < threshold 4
        alive["up"] = True
        env.run(until=300.0)
        assert suspected == []

    def test_disabled_monitor_does_not_ping(self, env):
        network = fixed_latency_network(env)
        network.register("owner")
        target = network.register("target")
        HeartbeatMonitor(
            env,
            network,
            owner="owner",
            targets=["target"],
            settings=HeartbeatSettings(interval_ms=10.0, suspicion_threshold=3),
            enabled=lambda: False,
        )
        env.run(until=200.0)
        assert len(target) == 0


class TestClusterDetection:
    """End-to-end: crash without the oracle; heartbeats find it."""

    def test_injector_uses_detection_when_configured(self):
        cluster, _ = self_healing_cluster()
        injector = FaultInjector(cluster)
        assert injector.detection_enabled

    def test_balancer_detects_and_routes_around_crash(self):
        cluster, _ = self_healing_cluster()
        injector = FaultInjector(cluster)
        cluster.run(300.0)
        crash_at = cluster.env.now
        injector.crash_replica("replica-1")
        # The injector told nobody: the balancer still believes in replica-1.
        assert "replica-1" in cluster.load_balancer.up_replicas
        cluster.run(600.0)
        monitor = cluster.load_balancer.monitor
        assert "replica-1" in monitor.suspected
        assert "replica-1" not in cluster.load_balancer.up_replicas
        # Detection latency: threshold(3) + 1 intervals (20 ms) + RTT slack.
        assert monitor.suspect_times["replica-1"] - crash_at <= 20.0 * 5

    def test_certifier_detects_and_excludes_crash(self):
        cluster, _ = self_healing_cluster()
        injector = FaultInjector(cluster)
        cluster.run(300.0)
        before = cluster.commit_version
        injector.crash_replica("replica-1")
        cluster.run(1_000.0)
        assert "replica-1" not in cluster.certifier.replica_names
        # Updates no longer wait on the dead replica: commits continue.
        assert cluster.commit_version > before

    def test_recovered_replica_is_readmitted_and_catches_up(self):
        cluster, _ = self_healing_cluster()
        injector = FaultInjector(cluster)
        cluster.run(300.0)
        injector.crash_replica("replica-1")
        cluster.run(800.0)
        injector.recover_replica("replica-1")
        cluster.run(1_400.0)
        assert "replica-1" in cluster.certifier.replica_names
        assert "replica-1" in cluster.load_balancer.up_replicas
        assert "replica-1" not in cluster.load_balancer.monitor.suspected
        cluster.quiesce()
        assert cluster.replica("replica-1").v_local == cluster.commit_version

    def test_detection_disabled_by_default(self):
        cluster = make_cluster(level="sc-coarse")
        assert cluster.load_balancer.monitor is None
        assert cluster.certifier.monitor is None
        assert FaultInjector(cluster).detection_enabled is False


class TestReplaceTarget:
    """replace_target re-points a monitor at a successor (the certifier
    failover and standby re-arm paths rely on it)."""

    def _build_two(self, env):
        network = fixed_latency_network(env)
        owner = network.register("owner")
        mailboxes = {
            "target-a": network.register("target-a"),
            "target-b": network.register("target-b"),
        }
        suspected = []
        monitor = HeartbeatMonitor(
            env,
            network,
            owner="owner",
            targets=["target-a"],
            settings=HeartbeatSettings(interval_ms=10.0, suspicion_threshold=3),
            on_suspect=lambda name: suspected.append((env.now, name)),
        )
        alive = {"target-a": True, "target-b": True}

        def responder(name):
            while True:
                ping = yield mailboxes[name].receive()
                if isinstance(ping, HeartbeatPing) and alive[name]:
                    network.send(name, ping.sender, HeartbeatAck(name, ping.seq))

        def owner_loop():
            while True:
                message = yield owner.receive()
                if isinstance(message, HeartbeatAck):
                    monitor.observe_ack(message)

        env.process(responder("target-a"), name="responder-a")
        env.process(responder("target-b"), name="responder-b")
        env.process(owner_loop(), name="owner-loop")
        return monitor, alive, suspected

    def test_replace_swaps_monitoring_to_successor(self, env):
        monitor, alive, suspected = self._build_two(env)
        env.run(until=100.0)
        monitor.replace_target("target-a", "target-b")
        assert monitor.targets == ["target-b"]
        # The old target's fate no longer matters to this monitor.
        alive["target-a"] = False
        env.run(until=400.0)
        assert suspected == []
        assert not monitor.is_suspected("target-b")

    def test_replace_drops_old_suspicion_and_successor_starts_fresh(self, env):
        monitor, alive, suspected = self._build_two(env)
        env.run(until=100.0)
        alive["target-a"] = False
        env.run(until=300.0)
        assert monitor.is_suspected("target-a")
        monitor.replace_target("target-a", "target-b")
        # The successor inherits nothing: no suspicion, a clean miss count.
        assert monitor.suspected == set()
        assert not monitor.is_suspected("target-b")
        env.run(until=600.0)
        assert [name for _t, name in suspected] == ["target-a"]

    def test_dead_successor_is_suspected_despite_old_targets_acks(self, env):
        monitor, alive, suspected = self._build_two(env)
        env.run(until=100.0)
        monitor.replace_target("target-a", "target-b")
        alive["target-b"] = False
        env.run(until=300.0)
        # Late acks from the replaced target must not mask the successor's
        # silence (observe_ack ignores non-targets).
        assert monitor.is_suspected("target-b")
        assert [name for _t, name in suspected] == ["target-b"]


class TestSuspectQuarantineInterplay:
    """Quarantine (anti-entropy) and suspicion (failure detection) are
    independent fences: a quarantined replica is alive and keeps acking, so
    it must never be counted suspected; a crash while quarantined suspends
    it once, and its return to rotation requires clearing *both* fences."""

    def _cluster(self):
        cluster = ReplicatedDatabase(
            MicroBenchmark(update_types=20, rows_per_table=100),
            ClusterConfig.self_healing(
                num_replicas=3,
                seed=7,
                scrub_interval_ms=100.0,
                scrub_reply_timeout_ms=20.0,
            ),
        )
        cluster.add_clients(6, retry_aborts=True)
        return cluster

    def test_quarantined_replica_is_never_suspected(self):
        cluster = self._cluster()
        injector = FaultInjector(cluster)
        cluster.run(400.0)
        scrubber = cluster.scrubber
        # Under live load a single corrupted row can be overwritten (and so
        # self-heal) before the next scrub round; keep corrupting until a
        # round catches one red-handed.
        while cluster.env.now < 4_000.0 and not scrubber.quarantined:
            try:
                injector.corrupt_row("replica-1")
            except ValueError:
                pass
            cluster.run(cluster.env.now + 60.0)
        cluster.run(cluster.env.now + 1_500.0)
        balancer = cluster.load_balancer
        quarantined = {r for _t, e, r, _d in scrubber.events if e == "quarantined"}
        readmitted = {r for _t, e, r, _d in scrubber.events if e == "readmitted"}
        assert quarantined == {"replica-1"}
        assert "replica-1" in readmitted
        # Fenced but alive the whole time: heartbeats kept flowing, so the
        # failure detector never suspected it and never "restored" it — the
        # clean scrub round's re-admission was the only re-entry.
        assert "replica-1" not in balancer.monitor.suspect_times
        assert "replica-1" not in balancer.monitor.restore_times
        assert "replica-1" in balancer.up_replicas
        assert "replica-1" not in balancer.quarantined_replicas

    def test_crash_while_quarantined_needs_both_fences_cleared(self):
        cluster = self._cluster()
        injector = FaultInjector(cluster)
        cluster.run(400.0)
        balancer = cluster.load_balancer
        # Operator-style fence the scrubber does not own: a clean scrub
        # round will not lift it.
        balancer.quarantine_replica("replica-1")
        injector.crash_replica("replica-1")
        cluster.run(1_400.0)
        assert balancer.monitor.is_suspected("replica-1")
        assert "replica-1" not in balancer.up_replicas
        injector.recover_replica("replica-1")
        cluster.run(2_400.0)
        # Suspicion cleared exactly once by the resumed acks; the replica is
        # back up but still quarantined — and not routable until that second
        # fence is lifted too.
        assert not balancer.monitor.is_suspected("replica-1")
        assert "replica-1" in balancer.up_replicas
        assert "replica-1" in balancer.quarantined_replicas
        assert "replica-1" in cluster.certifier.replica_names
        balancer.unquarantine_replica("replica-1")
        assert "replica-1" not in balancer.quarantined_replicas
        cluster.run(2_600.0)
        cluster.quiesce()
        assert cluster.replica("replica-1").v_local == cluster.commit_version
