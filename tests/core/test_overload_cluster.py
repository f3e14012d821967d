"""Cluster-level overload protection: config wiring, saturation behavior,
and the graceful-degradation valve's consistency contract."""

import pytest

from repro.core import ClusterConfig, ReplicatedDatabase
from repro.histories import RunHistory, is_session_consistent, is_strongly_consistent
from repro.metrics import MetricsCollector
from repro.middleware.overload import OverloadSettings
from repro.workloads import MicroBenchmark
from repro.workloads.clients import OpenLoopLoad


class TestConfigValidation:
    def test_overload_knobs_validated(self):
        with pytest.raises(ValueError, match="mpl_cap"):
            ClusterConfig(overload=OverloadSettings(mpl_cap=0))
        with pytest.raises(ValueError, match="queue_depth"):
            ClusterConfig(overload=OverloadSettings(mpl_cap=4, queue_depth=-1))
        with pytest.raises(ValueError, match="certifier_queue_bound"):
            ClusterConfig(certifier_queue_bound=0)

    def test_degradation_policy_resolved_eagerly(self):
        with pytest.raises(ValueError, match="unknown consistency policy"):
            ClusterConfig(
                overload=OverloadSettings(mpl_cap=4, valve_policy="definitely-not-a-policy")
            )

    def test_overload_protected_preset(self):
        config = ClusterConfig.overload_protected()
        settings = config.overload
        assert settings is not None
        assert settings.mpl_cap == 8
        assert settings.shed_deadline_ms == 500.0
        assert config.certifier_queue_bound == 64
        # Defaults-off: the plain config has no settings at all.
        assert ClusterConfig().overload is None


class TestSaturationBehavior:
    def run_overloaded(self, **config_overrides):
        config = ClusterConfig.overload_protected(
            num_replicas=2, seed=4, **config_overrides
        )
        cluster = ReplicatedDatabase(
            MicroBenchmark(update_types=10, rows_per_table=200), config
        )
        collector = MetricsCollector()
        load = OpenLoopLoad(
            cluster.env,
            cluster.network,
            cluster.workload,
            collector,
            rate_tps=6_000.0,
            rngs=cluster.rngs,
        )
        cluster.run(1_000.0)
        return cluster, collector, load

    def test_sheds_past_capacity_but_keeps_committing(self):
        cluster, collector, load = self.run_overloaded()
        admission = cluster.load_balancer.admission
        assert admission.shed_count + admission.deadline_shed_count > 0
        assert collector.summary().committed > 0
        # Bounded queues: pending never exceeds replicas * queue depth.
        assert admission.pending_depth() <= 2 * 32
        # Every shed request got an explicit overloaded response (minus the
        # handful still on the wire when the run stopped).
        total_shed = admission.shed_count + admission.deadline_shed_count
        assert 0 < total_shed - load.shed_responses < 20 or load.shed_responses == total_shed

    def test_stats_exposes_overload_counters(self):
        cluster, collector, load = self.run_overloaded()
        metrics = cluster.metrics
        balancer = metrics.tree("balancer")
        for key in ("pending_depth", "shed", "deadline_shed", "degraded", "valve_open"):
            assert key in balancer
        assert balancer["shed"] + balancer["deadline_shed"] > 0
        assert "backpressure_rejects" in metrics.tree("certifier")
        network = metrics.tree("network")
        assert network["dropped_by_reason"].get("overload-shed") == balancer["shed"] + balancer["deadline_shed"]

    def test_defaults_off_cluster_never_sheds(self):
        config = ClusterConfig(num_replicas=2, seed=4)
        cluster = ReplicatedDatabase(
            MicroBenchmark(update_types=10, rows_per_table=200), config
        )
        collector = MetricsCollector()
        OpenLoopLoad(
            cluster.env, cluster.network, cluster.workload, collector,
            rate_tps=6_000.0, rngs=cluster.rngs,
        )
        cluster.run(1_000.0)
        assert cluster.load_balancer.admission is None  # no admission queues at all
        assert cluster.metrics.get("balancer.shed") == 0
        assert cluster.metrics.get("balancer.pending_depth") == 0
        assert cluster.metrics.get("balancer.valve_open") is False


class TestGracefulDegradation:
    """The valve's contract: tagged reads drop to SESSION guarantees while
    overloaded, everything else stays strong, and the system is back to
    strong consistency within bounded time/versions of the load dropping."""

    def run_spike(self):
        config = ClusterConfig(
            num_replicas=2,
            level="sc-coarse",
            seed=9,
            overload=OverloadSettings(
                mpl_cap=2, queue_depth=32, valve_policy="session", valve_high=8, valve_low=2
            ),
        )
        cluster = ReplicatedDatabase(
            MicroBenchmark(update_types=10, rows_per_table=200), config
        )
        collector = MetricsCollector()
        load = OpenLoopLoad(
            cluster.env,
            cluster.network,
            cluster.workload,
            collector,
            rate_tps=4_000.0,
            rngs=cluster.rngs,
            degradable_reads=True,
        )
        cluster.run(1_000.0)  # saturated: the valve must open
        load.set_rate(50.0)
        drop_time = cluster.env.now
        drop_version = cluster.load_balancer.v_system
        cluster.run(3_000.0)  # drained: the valve must close again
        return cluster, load, drop_time, drop_version

    def test_valve_opens_under_load_and_closes_after(self):
        cluster, load, drop_time, drop_version = self.run_spike()
        admission = cluster.load_balancer.admission
        actions = [action for _, action, _ in admission.valve_events]
        assert "open" in actions
        assert admission.degraded_count > 0
        assert not admission.valve_open
        assert actions[-1] == "close"
        close_time, _, close_version = admission.valve_events[-1]
        # Strong consistency is restored within bounded time and versions
        # of the load dropping (the queues just have to drain).
        assert close_time - drop_time < 2_000.0
        assert close_version - drop_version < 100

    def test_degraded_run_is_session_consistent(self, ):
        cluster, load, drop_time, drop_version = self.run_spike()
        history = cluster.history
        assert len(history) > 0
        # Degraded reads may violate strict strong consistency (that is the
        # deal), but the whole mixed run keeps session guarantees.
        assert is_session_consistent(history)

    def test_strong_consistency_restored_after_close(self):
        cluster, load, drop_time, drop_version = self.run_spike()
        close_time = cluster.load_balancer.admission.valve_events[-1][0]
        after = RunHistory()
        for record in cluster.history:
            if record.submit_time >= close_time:
                after.add(record)
        assert len(after) > 0
        assert is_strongly_consistent(after, observational=False)
