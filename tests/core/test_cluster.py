"""Tests for cluster construction and the public API."""

import dataclasses

import pytest

from repro import ClusterConfig, ReplicatedDatabase
from repro.workloads import MicroBenchmark

from ..conftest import make_cluster


class TestConstruction:
    def test_builds_requested_replica_count(self):
        cluster = make_cluster(num_replicas=5)
        assert len(cluster.replicas) == 5
        assert cluster.replica_names == [f"replica-{i}" for i in range(5)]

    def test_zero_replicas_rejected(self):
        with pytest.raises(ValueError):
            make_cluster(num_replicas=0)

    def test_config_and_overrides_are_exclusive(self):
        workload = MicroBenchmark(rows_per_table=10)
        with pytest.raises(TypeError):
            ReplicatedDatabase(workload, ClusterConfig(), num_replicas=2)

    def test_keyword_overrides(self):
        workload = MicroBenchmark(rows_per_table=10)
        cluster = ReplicatedDatabase(workload, num_replicas=2, level="eager")
        assert cluster.policy.spec == "eager"
        assert len(cluster.replicas) == 2

    def test_replicas_start_identical_at_version_zero(self):
        cluster = make_cluster(num_replicas=3, rows=50)
        databases = [p.engine.database for p in cluster.replicas.values()]
        assert all(db.version == 0 for db in databases)
        reference = databases[0]
        for other in databases[1:]:
            for table in reference.table_names:
                for row in reference.table(table).scan(0):
                    assert other.table(table).read(row["id"], 0) == row

    def test_populates_once_and_shares_the_version_zero_image(self):
        calls = []

        class Counting(MicroBenchmark):
            def populate(self, database, rng):
                calls.append(database.name)
                super().populate(database, rng)

        cluster = ReplicatedDatabase(Counting(rows_per_table=20), num_replicas=8)
        assert len(calls) == 1
        databases = [proxy.engine.database for proxy in cluster.replicas.values()]
        first = cluster.replica(0).engine.database.table("t0")
        last = cluster.replica(7).engine.database.table("t0")
        assert first.read(3, 0) is last.read(3, 0)
        # At version 0 the replicas' key -> head maps are one object.
        assert first is not last and first._chains is last._chains
        assert len({id(db.table("t0")._chains) for db in databases}) == 1
        session = cluster.open_session("w")
        session.execute("micro-update-0", {"key": 3})
        cluster.quiesce()
        version = cluster.commit_version
        # The written table is private on every replica that applied the
        # update; the tables nobody wrote are still shared.
        assert all(db.version == version for db in databases)
        assert len({id(db.table("t0")._chains) for db in databases}) == len(databases)
        for untouched in ("t1", "t2", "t3"):
            assert len({id(db.table(untouched)._chains) for db in databases}) == 1
        # Every replica installed the one image the commit produced, on top
        # of the version-0 image they already shared.
        assert first.read(3, version) is last.read(3, version)
        assert first.latest(3) is last.latest(3)
        assert first.latest(3).commit_version == version
        assert first.latest(3).prev is last.latest(3).prev
        assert first.read(4, version) is last.read(4, version)  # untouched row

    def test_history_recording_optional(self):
        assert make_cluster(record_history=False).history is None
        assert make_cluster(record_history=True).history is not None

    def test_replica_lookup_by_index_and_name(self):
        cluster = make_cluster()
        assert cluster.replica(0) is cluster.replica("replica-0")

    def test_first_replica_is_reference_speed(self):
        cluster = make_cluster(num_replicas=4)
        assert cluster.replica(0).perf.speed_factor == 1.0


class TestInteractiveUse:
    def test_session_update_and_read(self):
        cluster = make_cluster()
        session = cluster.open_session("alice")
        response = session.execute("micro-update-0", {"key": 3})
        assert response.committed
        assert response.commit_version == 1
        row = session.result("micro-read-20", {"key": 3})
        assert row["id"] == 3

    def test_auto_session_ids_unique(self):
        cluster = make_cluster()
        a = cluster.open_session()
        b = cluster.open_session()
        assert a.session_id != b.session_id

    def test_unknown_template_rejected(self):
        cluster = make_cluster()
        session = cluster.open_session()
        with pytest.raises(KeyError):
            session.execute("no-such-template")

    def test_commit_version_advances_monotonically(self):
        cluster = make_cluster()
        session = cluster.open_session()
        versions = [
            session.execute("micro-update-0", {"key": k}).commit_version
            for k in range(1, 6)
        ]
        assert versions == [1, 2, 3, 4, 5]

    def test_quiesce_propagates_to_all_replicas(self):
        cluster = make_cluster(num_replicas=4)
        session = cluster.open_session()
        session.execute("micro-update-0", {"key": 1})
        cluster.quiesce()
        assert set(cluster.replica_versions().values()) == {1}

    def test_try_execute_returns_response_on_abort(self):
        cluster = make_cluster()
        session = cluster.open_session()
        # Force an abort via a missing row (update on key out of range).
        response = session.try_execute("micro-update-0", {"key": 10_000_000})
        assert not response.committed
        assert response.abort_reason

    def test_determinism_same_seed_same_outcome(self):
        def run(seed):
            cluster = make_cluster(seed=seed)
            session = cluster.open_session("s")
            r = session.execute("micro-update-0", {"key": 1})
            return (r.commit_version, cluster.env.now)

        assert run(3) == run(3)
        assert run(3) != run(4)  # timing differs with the seed


class TestStats:
    def test_stats_snapshot_shape(self):
        cluster = make_cluster(num_replicas=2)
        cluster.add_clients(4)
        cluster.run(500.0)
        metrics = cluster.metrics
        commit_version = metrics.get("certifier.commit_version")
        assert commit_version > 0
        assert metrics.get("cluster.level") == "SC-COARSE"
        replicas = metrics.tree("replica")
        assert set(replicas) == {"replica-0", "replica-1"}
        for replica in replicas.values():
            assert replica["v_local"] <= commit_version
            assert replica["lag"] >= 0
            assert replica["cpu_busy_ms"] > 0
            assert not replica["crashed"]
        assert metrics.get("certifier.replication_horizon") <= commit_version

    def test_stats_reflect_crash(self):
        from repro.faults import FaultInjector

        cluster = make_cluster(num_replicas=3)
        cluster.add_clients(4)
        cluster.run(300.0)
        FaultInjector(cluster).crash_replica("replica-1")
        assert cluster.metrics.get("replica.replica-1.crashed")


class TestLoadedUse:
    def test_add_clients_and_run(self):
        cluster = make_cluster(num_replicas=2)
        collector = cluster.add_clients(4)
        cluster.run(500.0)
        summary = collector.summary(duration_ms=500.0)
        assert summary.committed > 0
        assert cluster.commit_version > 0

    def test_populate_must_not_commit(self):
        class BadWorkload(MicroBenchmark):
            def populate(self, database, rng):
                super().populate(database, rng)
                from repro.storage import OpKind, WriteOp, WriteSet

                database.apply_writeset(
                    WriteSet([WriteOp("t0", 1, OpKind.UPDATE,
                                      {"id": 1, "payload": 1, "filler": "x"})]),
                    1,
                )

        with pytest.raises(RuntimeError):
            ReplicatedDatabase(BadWorkload(rows_per_table=5), num_replicas=1)


#: preset -> (monitors, admission, deadlines, standby, scrubber, bootstrap,
#: certifier.inbound_queue_bound, certifier.departed_grace_ms)
PRESET_CENSUS = {
    "default": (False, False, False, False, False, False, None, None),
    "self_healing": (True, False, True, True, False, False, None, None),
    "overload_protected": (False, True, False, False, False, False, 64, None),
    "anti_entropy": (False, False, False, False, True, False, None, None),
    "elastic": (True, False, True, True, False, True, None, 400.0),
}


class TestPresetCensus:
    """Which opt-in components each preset builds; a component that is not
    configured is not constructed."""

    @pytest.mark.parametrize("preset", sorted(PRESET_CENSUS))
    def test_preset_builds_exactly_its_components(self, preset):
        config = (
            ClusterConfig(num_replicas=2)
            if preset == "default"
            else getattr(ClusterConfig, preset)(num_replicas=2)
        )
        cluster = ReplicatedDatabase(MicroBenchmark(rows_per_table=10), config)
        balancer, certifier = cluster.load_balancer, cluster.certifier
        monitors = {
            balancer.monitor is not None,
            certifier.monitor is not None,
            *(proxy.monitor is not None for proxy in cluster.replicas.values()),
        }
        assert len(monitors) == 1, "monitors are built everywhere or nowhere"
        census = (
            monitors.pop(),
            balancer.admission is not None,
            balancer.deadlines is not None,
            cluster.standby is not None,
            cluster.scrubber is not None,
            cluster.bootstrap is not None,
            certifier.inbound_queue_bound,
            certifier.departed_grace_ms,
        )
        assert census == PRESET_CENSUS[preset]

    def test_config_field_count(self):
        """Subsystem knobs are their settings objects, not flat fields."""
        assert len(dataclasses.fields(ClusterConfig)) == 30


class TestUnexpectedMessages:
    """A component that receives a message it cannot handle must stop the
    run with a traceback.  (While the components polled their mailboxes the
    ``TypeError`` failed a dispatch-loop process nobody waited on: the
    component went deaf and ``run()`` idled to its horizon without a word.)"""

    @pytest.mark.parametrize("endpoint", ["lb", "replica-1", "certifier"])
    def test_bogus_message_surfaces_from_run(self, endpoint):
        cluster = make_cluster(num_replicas=2)
        cluster.add_clients(2)
        cluster.run(50.0)
        cluster.network.send("x", endpoint, object())
        with pytest.raises(TypeError, match=f"{endpoint} got unexpected message"):
            cluster.run(100.0)
