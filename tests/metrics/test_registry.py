"""Unit tests for the unified metrics registry and the report redesign."""

import pytest

from repro.core import ClusterConfig, ReplicatedDatabase
from repro.metrics import MetricsRegistry, render
from repro.middleware import BootstrapSettings
from repro.workloads import MicroBenchmark


def _small_cluster(**kwargs):
    cluster = ReplicatedDatabase(
        MicroBenchmark(update_types=5, rows_per_table=50),
        ClusterConfig(num_replicas=2, seed=3, **kwargs),
    )
    cluster.add_clients(3)
    cluster.env.run(until=300.0)
    return cluster


class TestMetricsRegistry:
    def test_register_and_collect_flattens_to_dotted_names(self):
        registry = MetricsRegistry()
        registry.register("kernel", lambda: {"events": 7, "queue": {"depth": 2}})
        flat = registry.collect()
        assert flat["kernel.events"] == 7
        assert flat["kernel.queue.depth"] == 2

    def test_register_rejects_dotted_provider_names(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.register("a.b", lambda: {})

    def test_get_walks_dotted_paths_with_int_fallback(self):
        registry = MetricsRegistry()
        registry.register("certifier", lambda: {"shard": {0: {"conflicts": 4}}})
        assert registry.get("certifier.shard.0.conflicts") == 4
        with pytest.raises(KeyError):
            registry.get("certifier.shard.9.conflicts")

    def test_none_trees_are_skipped_in_collect(self):
        registry = MetricsRegistry()
        registry.register("scrub", lambda: None)
        assert registry.collect() == {}

    def test_freeze_keeps_the_trees_read_at_that_instant(self):
        counter = {"events": 1}
        registry = MetricsRegistry()
        registry.register("kernel", lambda: dict(counter))
        registry.register("scrub", lambda: None)
        registry.freeze()
        counter["events"] = 2
        assert registry.collect() == {"kernel.events": 1}
        assert registry.tree("scrub") is None


class TestClusterRegistry:
    def test_cluster_publishes_stable_dotted_names(self):
        cluster = _small_cluster()
        flat = cluster.metrics.collect()
        for name in (
            "kernel.events_processed",
            "kernel.immediate_scheduled",
            "certifier.certified",
            "certifier.conflicts",
            "certifier.commit_version",
            "balancer.dispatched",
            "network.sent",
            "storage.scan_fallbacks",
            "cluster.time_ms",
            "trace.enabled",
        ):
            assert name in flat, name
        assert flat["kernel.events_processed"] > 0
        assert flat["certifier.certified"] > 0

    def test_partitioned_cluster_exposes_per_shard_conflicts(self):
        cluster = _small_cluster(num_partitions=2)
        flat = cluster.metrics.collect()
        assert "certifier.shard.0.conflicts" in flat
        assert "certifier.shard.1.certified" in flat
        assert cluster.metrics.get("certifier.shard.0.certified") >= 0

    def test_registry_values_track_live_counters(self):
        cluster = _small_cluster()
        assert (cluster.metrics.get("kernel.events_processed")
                == cluster.env.events_processed)
        assert (cluster.metrics.get("certifier.certified")
                == cluster.certifier.certified_count)
        assert (cluster.metrics.get("certifier.conflicts")
                == cluster.certifier.abort_count)
        assert (cluster.metrics.get("certifier.commit_version")
                == cluster.commit_version)
        for name, proxy in cluster.replicas.items():
            assert (cluster.metrics.get(f"replica.{name}.committed")
                    == proxy.committed_count)
            assert cluster.metrics.get(f"replica.{name}.v_local") == proxy.v_local

    def test_component_stats_is_its_registry_subtree(self):
        """The naming lives with the producer: the registry publishes each
        component's ``stats()`` as-is (``lag`` is the one field the cluster
        derives)."""
        cluster = _small_cluster(scrub_interval_ms=100.0, bootstrap=BootstrapSettings())
        metrics = cluster.metrics
        assert metrics.tree("certifier") == cluster.certifier.stats()
        assert metrics.tree("balancer") == cluster.load_balancer.stats()
        assert metrics.tree("scrub") == cluster.scrubber.stats()
        assert metrics.tree("bootstrap") == cluster.bootstrap.stats()
        for name, proxy in cluster.replicas.items():
            subtree = metrics.tree("replica")[name]
            assert subtree.pop("lag") == cluster.commit_version - proxy.v_local
            assert subtree == proxy.stats()

    def test_unconfigured_subsystems_publish_nothing(self):
        cluster = _small_cluster()
        assert cluster.metrics.tree("scrub") is None
        assert cluster.metrics.tree("bootstrap") is None
        assert not any(
            name.startswith(("scrub.", "bootstrap."))
            for name in cluster.metrics.collect()
        )

    def test_certifier_subtree_follows_a_failover(self):
        from repro.faults import FaultInjector

        cluster = _small_cluster()
        successor = FaultInjector(cluster).failover_certifier()
        assert cluster.metrics.get("certifier.name") == successor.name
        assert cluster.metrics.get("certifier.epoch") == 2


class TestRender:
    def test_render_accepts_registry_and_stats_snapshot(self):
        cluster = _small_cluster()
        via_registry = render(cluster.metrics)
        assert "V_commit" in via_registry
        assert "commit pipeline" in via_registry
        assert "partitions=1" in via_registry
        assert "aborts=" in via_registry
        assert "scrubbing disabled" in via_registry
        assert "lifecycle disabled" in via_registry

    def test_render_section_selection_and_order(self):
        cluster = _small_cluster()
        out = render(cluster.metrics, sections=("replicas", "summary"))
        assert out.index("replica-0") < out.index("V_commit")
        assert "commit pipeline" not in out

    def test_render_rejects_unknown_sections(self):
        with pytest.raises(ValueError):
            render(MetricsRegistry(), sections=("bogus",))

    def test_trace_section(self):
        cluster = _small_cluster()
        out = render(cluster.metrics, sections=("trace",))
        assert "tracing disabled" in out
