"""Link-level partitions: the network primitive and its end-to-end effect.

The satellite scenario: a replica cut off from the certifier under
SC-COARSE keeps serving reads locally from its (stale but consistent)
snapshot, its update transactions abort or queue instead of committing,
and when the partition heals it catches up cleanly through gap repair.
"""

from repro import ClusterConfig, ReplicatedDatabase
from repro.faults import FaultInjector
from repro.histories.checkers import strong_consistency_violations
from repro.middleware import ClientRequest, RoutedRequest, TxnResponse
from repro.workloads import MicroBenchmark

from ..middleware.conftest import fixed_latency_network


class TestDirectedLinks:
    def test_partition_drops_only_the_cut_direction(self, env):
        network = fixed_latency_network(env)
        a, b = network.register("a"), network.register("b")
        network.partition_link("a", "b")
        network.send("a", "b", "lost")
        network.send("b", "a", "delivered")
        env.run()
        assert len(b) == 0
        assert a.receive().value == "delivered"

    def test_symmetric_partition_drops_both_directions(self, env):
        network = fixed_latency_network(env)
        a, b = network.register("a"), network.register("b")
        network.partition_link("a", "b", symmetric=True)
        network.send("a", "b", "lost")
        network.send("b", "a", "also lost")
        env.run()
        assert len(a) == 0 and len(b) == 0

    def test_heal_restores_delivery(self, env):
        network = fixed_latency_network(env)
        _, b = network.register("a"), network.register("b")
        network.partition_link("a", "b", symmetric=True)
        network.send("a", "b", "lost")
        env.run()
        network.heal_link("a", "b", symmetric=True)
        network.send("a", "b", "delivered")
        env.run()
        assert b.receive().value == "delivered"
        assert network.partitioned_links == frozenset()

    def test_message_in_flight_when_link_cut_is_dropped(self, env):
        network = fixed_latency_network(env, base=5.0)
        _, b = network.register("a"), network.register("b")
        network.send("a", "b", "in flight")
        env.run(until=1.0)  # message on the wire, not yet delivered
        network.partition_link("a", "b")
        env.run()
        assert len(b) == 0

    def test_partition_does_not_affect_other_endpoints(self, env):
        network = fixed_latency_network(env)
        network.register("a")
        network.register("b")
        c = network.register("c")
        network.partition_link("a", "b", symmetric=True)
        network.send("a", "c", "fine")
        env.run()
        assert c.receive().value == "fine"


class TestPartitionedReplicaScenario:
    """The satellite: SC-COARSE replica cut off from the certifier."""

    def _run_scenario(self):
        config = ClusterConfig.self_healing(
            num_replicas=3, seed=13, level="sc-coarse"
        )
        cluster = ReplicatedDatabase(
            MicroBenchmark(update_types=20, rows_per_table=100), config
        )
        cluster.add_clients(6, retry_aborts=True)
        injector = FaultInjector(cluster)
        cluster.run(400.0)

        cut_at = cluster.env.now
        injector.partition_link("replica-2", "certifier", symmetric=True)

        # A "local" client at the cut-off replica: probe it directly over
        # its still-healthy link, tapping the network for the responses
        # (they are addressed to the balancer, which ignores them as
        # unknown — exactly what a late duplicate would get).
        probes = []
        cluster.network.add_tap(
            lambda s, r, m: probes.append(m)
            if s == "replica-2" and isinstance(m, TxnResponse)
            and m.request_id >= 9_000_000 else None
        )

        def prober():
            for i in range(20):
                yield cluster.env.timeout(50.0)
                request = ClientRequest(
                    request_id=9_000_000 + i,
                    template="micro-read-20",
                    params={"key": 1},
                    session_id="local-probe",
                    reply_to="lb",
                    submit_time=cluster.env.now,
                )
                cluster.network.send("lb", "replica-2", RoutedRequest(request, 0))

        cluster.env.process(prober(), name="local-probe")

        cluster.run(1_600.0)
        healed_at = cluster.env.now
        stale_v_local = cluster.replica("replica-2").v_local
        injector.heal_link("replica-2", "certifier", symmetric=True)
        cluster.run(2_600.0)
        cluster.quiesce(max_wait_ms=60_000.0)
        return cluster, cut_at, healed_at, stale_v_local, probes

    def test_reads_served_updates_blocked_then_clean_catchup(self):
        cluster, cut_at, healed_at, stale_v_local, probes = self._run_scenario()
        history = cluster.load_balancer.history
        window = [
            r for r in history.records if cut_at < r.ack_time <= healed_at
        ]

        # The cut-off replica kept serving read-only transactions locally
        # from its frozen — stale but internally consistent — snapshot.
        assert len(probes) == 20
        assert all(p.committed for p in probes)
        assert all(p.replica_version <= stale_v_local for p in probes)
        # The staleness is real: the system moved on past the replica.
        assert cluster.load_balancer.v_system > stale_v_local

        # Through the balancer, SC-COARSE does its job instead: reads that
        # would have been stale are re-routed to fresh replicas, so no
        # acknowledged transaction in the window ran at replica-2 ...
        assert [r for r in window if r.replica == "replica-2"] == []
        assert cluster.metrics.get("balancer.rerouted_reads") > 0

        # ... and none of its update transactions committed during the cut:
        # certify requests could not reach the certifier, so they queued
        # until the certify timeout abandoned them.
        assert cluster.replica("replica-2").abandoned_count > 0

        # The rest of the cluster made update progress throughout.
        other_commits = [
            r for r in window
            if r.replica != "replica-2" and r.commit_version is not None
        ]
        assert other_commits

        # Nothing the clients were told violates strong consistency.
        assert strong_consistency_violations(history) == []

    def test_partitioned_replica_catches_up_after_heal(self):
        cluster, _, _, _, _ = self._run_scenario()
        certifier = cluster.certifier
        lagger = cluster.replica("replica-2")
        assert lagger.v_local == certifier.commit_version
        # Data identical to an always-connected replica, row by row.
        reference = cluster.replica(0).engine.database
        recovered = lagger.engine.database
        assert recovered.version == reference.version
        for table in reference.table_names:
            for row in reference.table(table).scan(reference.version):
                assert recovered.table(table).read(row["id"], recovered.version) == row
