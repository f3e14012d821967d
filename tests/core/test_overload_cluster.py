"""Cluster-level overload protection: config wiring, saturation behavior,
and the consistency contract under overload."""

import pytest

from repro.core import ClusterConfig, ReplicatedDatabase
from repro.histories import is_strongly_consistent
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

    def test_overload_keeps_strong_consistency(self):
        # Admission control only delays or sheds a request before it
        # starts; every read it admits still waits for the policy's start
        # version, however deep the queues.
        cluster, collector, load = self.run_overloaded()
        assert cluster.load_balancer.admission.shed_count > 0
        assert len(cluster.history) > 0
        assert is_strongly_consistent(cluster.history)

    def test_stats_exposes_overload_counters(self):
        cluster, collector, load = self.run_overloaded()
        metrics = cluster.metrics
        balancer = metrics.tree("balancer")
        for key in ("pending_depth", "shed", "deadline_shed"):
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
