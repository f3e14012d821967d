"""Unit tests for the unified metrics registry and the report redesign."""

import pytest

from repro.core import ClusterConfig, ReplicatedDatabase
from repro.metrics import MetricsRegistry, render
from repro.metrics.report import (
    format_bootstrap_stats,
    format_partition_stats,
    format_scrub_stats,
)
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

    def test_transform_shapes_the_canonical_tree_only(self):
        registry = MetricsRegistry()
        registry.register(
            "certifier",
            lambda: {"aborts": 3},
            transform=lambda raw: {"conflicts": raw["aborts"]},
        )
        assert registry.tree("certifier", raw=True) == {"aborts": 3}
        assert registry.collect()["certifier.conflicts"] == 3

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

    def test_legacy_stats_shape_is_preserved(self):
        """The old nested stats() dict is now a view over the registry —
        every legacy key must survive with the same value."""
        cluster = _small_cluster()
        stats = cluster.stats()
        assert set(stats.keys()) == {
            "time_ms", "level", "commit_version", "replication_horizon",
            "certified", "certification_aborts", "certifier_name",
            "certifier_epoch", "row_comparisons",
            "certifier_backpressure_rejects", "partition", "network",
            "scrub", "bootstrap", "balancer", "kernel", "storage",
            "replicas",
        }
        assert stats["certified"] == cluster.certifier.certified_count
        assert stats["commit_version"] == cluster.commit_version
        assert stats["kernel"]["events_processed"] == cluster.env.events_processed
        assert set(stats["kernel"].keys()) == {
            "events_processed", "immediate_scheduled",
        }
        assert set(stats["balancer"].keys()) == {
            "v_system", "outstanding", "timed_out", "rerouted_reads",
            "retried_updates", "fate_commits", "fate_aborts",
            "pending_depth", "shed", "deadline_shed", "degraded",
            "valve_open",
        }
        assert stats["scrub"] is None
        assert stats["bootstrap"] is None
        for name, replica in stats["replicas"].items():
            proxy = cluster.replicas[name]
            assert replica["committed"] == proxy.committed_count
            assert replica["v_local"] == proxy.v_local


class TestRender:
    def test_render_accepts_registry_and_stats_snapshot(self):
        cluster = _small_cluster()
        via_registry = render(cluster.metrics)
        via_stats = render(cluster.stats())
        assert via_registry == via_stats
        assert "V_commit" in via_registry
        assert "commit pipeline" in via_registry

    def test_render_section_selection_and_order(self):
        cluster = _small_cluster()
        out = render(cluster.metrics, sections=("replicas", "summary"))
        assert out.index("replica-0") < out.index("V_commit")
        assert "commit pipeline" not in out

    def test_render_rejects_unknown_sections(self):
        with pytest.raises(ValueError):
            render({}, sections=("bogus",))

    def test_trace_section(self):
        cluster = _small_cluster()
        out = render(cluster.metrics, sections=("trace",))
        assert "tracing disabled" in out


class TestDeprecatedShims:
    def test_old_helpers_warn_and_delegate(self):
        cluster = _small_cluster()
        stats = cluster.stats()
        with pytest.warns(DeprecationWarning):
            partition = format_partition_stats(stats)
        assert "partitions=1" in partition
        with pytest.warns(DeprecationWarning):
            scrub = format_scrub_stats(stats)
        assert "scrubbing disabled" in scrub
        with pytest.warns(DeprecationWarning):
            boot = format_bootstrap_stats(stats)
        assert "lifecycle disabled" in boot

    def test_old_helpers_match_render_output(self):
        cluster = _small_cluster()
        stats = cluster.stats()
        with pytest.warns(DeprecationWarning):
            old = format_scrub_stats(stats)
        new = render(stats, sections=("scrub",))
        # render adds its section title; the body is identical
        assert new.splitlines()[1:] == old.splitlines() or new.endswith(old)
