"""The replica lifecycle: checkpoint-based bootstrap of fresh joiners and
automatic re-bootstrap of returnees whose replay history was truncated.

Unit level covers the settings contract and the checkpoint watermark jump;
cluster level drives the full joining → catching-up → live machine under
continuous client load (no quiet window — the paper's middleware never gets
one)."""

import pytest

from repro import ClusterConfig, ReplicatedDatabase
from repro.faults import FaultInjector
from repro.faults.audit import audit
from repro.middleware import BootstrapSettings
from repro.workloads import MicroBenchmark


def elastic_cluster(clients=6, **overrides):
    overrides.setdefault("num_replicas", 3)
    overrides.setdefault("seed", 7)
    cluster = ReplicatedDatabase(
        MicroBenchmark(update_types=20, rows_per_table=100),
        ClusterConfig.elastic(**overrides),
    )
    collector = cluster.add_clients(clients, retry_aborts=True)
    return cluster, collector


class TestBootstrapSettings:
    def test_defaults_are_valid(self):
        settings = BootstrapSettings()
        assert settings.live_lag == 4
        assert settings.retry_ms == 25.0
        assert settings.checkpoint_timeout_ms == 200.0

    def test_negative_live_lag_rejected(self):
        with pytest.raises(ValueError):
            BootstrapSettings(live_lag=-1)

    def test_non_positive_retry_rejected(self):
        with pytest.raises(ValueError):
            BootstrapSettings(retry_ms=0.0)

    def test_non_positive_checkpoint_timeout_rejected(self):
        with pytest.raises(ValueError):
            BootstrapSettings(checkpoint_timeout_ms=-5.0)

    def test_config_knobs_resolve_to_settings(self):
        settings = BootstrapSettings(live_lag=2, retry_ms=10.0)
        cluster = ReplicatedDatabase(
            MicroBenchmark(rows_per_table=10), ClusterConfig.elastic(bootstrap=settings)
        )
        assert cluster.bootstrap.settings is settings

    def test_disabled_config_has_no_settings(self):
        assert ClusterConfig().bootstrap is None
        assert ClusterConfig.elastic().bootstrap == BootstrapSettings()

    def test_invalid_knobs_fail_fast_at_config_time(self):
        with pytest.raises(ValueError):
            ClusterConfig.elastic(bootstrap=BootstrapSettings(retry_ms=-1.0))


class TestAdoptCheckpoint:
    def _db(self):
        from repro.storage import Column, Database, TableSchema

        db = Database()
        db.create_table(TableSchema("t", [Column("id", int), Column("v", int)], "id"))
        return db

    def _ws(self, key, value):
        from repro.storage import OpKind, WriteOp, WriteSet

        return WriteSet([WriteOp("t", key, OpKind.INSERT, {"id": key, "v": value})])

    def test_jumps_watermark_without_applies(self):
        db = self._db()
        db.adopt_checkpoint(10)
        assert db.version == 10
        assert not db.has_applied_ahead

    def test_absorbs_covered_applied_ahead(self):
        db = self._db()
        db.apply_writeset(self._ws(1, 1), 1)
        db.apply_writeset(self._ws(3, 3), 3, after=(1,))  # buffered ahead
        db.adopt_checkpoint(5)
        assert db.version == 5
        assert not db.has_applied_ahead

    def test_absorbs_contiguous_run_above_checkpoint(self):
        """Refreshes buffered out of order while the transfer was in flight
        become a contiguous prefix once the checkpoint lands under them."""
        db = self._db()
        db.apply_writeset(self._ws(6, 6), 6, after=())
        db.apply_writeset(self._ws(7, 7), 7, after=(6,))
        db.apply_writeset(self._ws(9, 9), 9, after=(7,))
        db.adopt_checkpoint(5)
        assert db.version == 7
        assert db.has_applied_ahead  # v9 still waits on v8

    def test_stale_checkpoint_is_a_no_op(self):
        db = self._db()
        db.apply_writeset(self._ws(1, 1), 1)
        db.apply_writeset(self._ws(2, 2), 2)
        db.adopt_checkpoint(1)
        assert db.version == 2


class TestOnlineJoin:
    """A brand-new empty replica joins a running cluster under full load."""

    def _join(self, join_at=400.0, run_until=2_200.0):
        cluster, collector = elastic_cluster()
        cluster.run(join_at)
        name = cluster.add_replica_online()
        cluster.run(run_until)
        cluster.quiesce()
        return cluster, collector, name

    def test_joiner_reaches_live_and_full_membership(self):
        cluster, _, name = self._join()
        boot = cluster.bootstrap
        assert name == "replica-3"
        assert boot.bootstraps_completed == 1
        assert boot.active == frozenset()
        assert name in cluster.certifier.replica_names
        assert name in cluster.load_balancer.up_replicas
        assert name not in cluster.load_balancer.joining_replicas

    def test_lifecycle_events_run_in_order(self):
        cluster, _, name = self._join()
        states = [s for _t, s, r, _d in cluster.bootstrap.events if r == name]
        assert states[0] == "joining"
        assert states[-1] == "live"
        assert states.index("checkpoint-requested") < states.index("catching-up")
        assert states.index("catching-up") < states.index("live")

    def test_no_safety_violations_with_a_joiner(self):
        """The joiner converges to V_commit with identical digests, and the
        rest of the audit holds around it."""
        cluster, _, _ = self._join()
        report = audit(cluster)
        assert report.ok, report.failures
        assert cluster.certifier.stale_recovery_refusals == 0

    def test_joiner_serves_traffic_after_live(self):
        cluster, _, name = self._join()
        went_live = [t for t, s, r, _d in cluster.bootstrap.events
                     if r == name and s == "live"]
        assert len(went_live) == 1
        # Once live, the balancer routes to it like any other replica.
        proxy = cluster.replica(name)
        assert proxy.committed_count + proxy.aborted_count > 0

    def test_add_replica_online_requires_coordinator(self):
        cluster = ReplicatedDatabase(
            MicroBenchmark(update_types=20, rows_per_table=100),
            ClusterConfig(num_replicas=3, seed=7),
        )
        assert cluster.bootstrap is None
        with pytest.raises(RuntimeError):
            cluster.add_replica_online()

    def test_duplicate_name_rejected(self):
        cluster, _ = elastic_cluster()
        cluster.run(100.0)
        with pytest.raises(ValueError):
            cluster.add_replica_online("replica-0")

    def test_bootstrap_of_unknown_replica_rejected(self):
        cluster, _ = elastic_cluster()
        with pytest.raises(ValueError):
            cluster.bootstrap.bootstrap("replica-99")

    def test_bootstrap_dedupes_active_replica(self):
        cluster, _ = elastic_cluster()
        cluster.run(400.0)
        name = cluster.add_replica_online()
        assert cluster.bootstrap.bootstrap(name) is False
        cluster.run(2_200.0)
        assert cluster.bootstrap.bootstraps_started == 1


class TestRebootstrapAfterHorizonLoss:
    """A crashed replica that returns after the certifier truncated past its
    position is refused replay — and must re-enter via checkpoint bootstrap
    automatically, not sit refused forever."""

    def test_purged_returnee_rebootstraps_to_live(self):
        cluster, collector = elastic_cluster()
        injector = FaultInjector(cluster)
        cluster.run(400.0)
        injector.crash_replica("replica-1")
        # Detection (4 × 20 ms), then the departed grace (400 ms) releases
        # the horizon pin; only an explicit truncation drops history.
        cluster.run(1_100.0)
        dropped = cluster.certifier.truncate_log()
        assert dropped > 0
        injector.recover_replica("replica-1")
        cluster.run(3_000.0)
        cluster.quiesce()

        assert cluster.certifier.stale_recovery_refusals >= 1
        proxy = cluster.replica("replica-1")
        assert proxy.bootstrap_required_refusals >= 1
        boot = cluster.bootstrap.stats()
        assert boot["rebootstraps_triggered"] >= 1
        assert boot["bootstraps_completed"] >= 1
        # replica-1 back in membership, converged and digest-identical.
        report = audit(cluster)
        assert report.ok, report.failures

    def test_catching_up_joiner_never_pins_the_horizon(self):
        """While catching up the joiner is outside the certifier's
        membership, so its (huge) lag must not cap the replication
        horizon for everyone else."""
        cluster, _ = elastic_cluster()
        cluster.run(400.0)
        name = cluster.add_replica_online()
        # The joiner sits at v_local 0; if it were inside the horizon
        # computation the horizon would collapse to 0 right here.
        assert name not in cluster.certifier.applied_versions
        assert cluster.certifier.replication_horizon() > 0
        cluster.run(2_200.0)
        cluster.quiesce()
        assert name in cluster.certifier.replica_names
