"""Behavioural-equivalence audit of the policy/lifecycle refactor.

The cluster is deterministic in its seed, so a scheme whose behaviour is
unchanged reproduces a pre-refactor run *exactly* — same commit and abort
counts, same certifier decisions, same per-stage timing totals to the last
microsecond.  The golden numbers below were captured on the pre-refactor
tree (commit 544fa41) with this very scenario; any drift in the refactored
protocol shows up as a hard mismatch.

Also proves the bounded-staleness dial's degenerate case: ``relaxed:0`` is
indistinguishable from SC-COARSE and passes the strong-consistency audit.
"""

import pytest

from repro.core import ClusterConfig, ReplicatedDatabase
from repro.histories import is_strongly_consistent, staleness_report
from repro.metrics import MetricsCollector
from repro.metrics.stages import StageTimings
from repro.workloads import MicroBenchmark

#: captured on the pre-refactor tree: scenario fingerprints per level
GOLDEN = {
    "sc-coarse": {
        "committed": 6602,
        "aborted": 8,
        "replica_committed": 6602,
        "replica_aborted": 8,
        "certified": 1635,
        "certification_aborts": 3,
        "commit_version": 1635,
        "v_system": 1635,
        "stage_totals": {
            "version": 102.178208,
            "queries": 6301.621075,
            "certify": 1243.609838,
            "sync": 364.460152,
            "commit": 3677.690717,
            "global": 0.0,
        },
    },
    "sc-fine": {
        "committed": 6614,
        "aborted": 6,
        "replica_committed": 6615,
        "replica_aborted": 6,
        "certified": 1644,
        "certification_aborts": 5,
        "commit_version": 1644,
        "v_system": 1644,
        "stage_totals": {
            "version": 33.495475,
            "queries": 6324.105549,
            "certify": 1240.1808,
            "sync": 363.758428,
            "commit": 3719.526305,
            "global": 0.0,
        },
    },
    "session": {
        "committed": 6598,
        "aborted": 5,
        "replica_committed": 6598,
        "replica_aborted": 5,
        "certified": 1641,
        "certification_aborts": 3,
        "commit_version": 1641,
        "v_system": 1641,
        "stage_totals": {
            "version": 44.896751,
            "queries": 6347.207006,
            "certify": 1247.712733,
            "sync": 351.965448,
            "commit": 3699.383925,
            "global": 0.0,
        },
    },
    "eager": {
        "committed": 4635,
        "aborted": 1,
        "replica_committed": 4638,
        "replica_aborted": 1,
        "certified": 1142,
        "certification_aborts": 1,
        "commit_version": 1142,
        "v_system": 1140,
        "stage_totals": {
            "version": 0.0,
            "queries": 4283.953147,
            "certify": 841.908947,
            "sync": 127.834658,
            "commit": 2508.871502,
            "global": 4899.168894,
        },
    },
}


def run_scenario(level):
    """The fixed scenario the golden numbers were captured with."""
    cluster = ReplicatedDatabase(
        MicroBenchmark(update_types=10, rows_per_table=200),
        ClusterConfig(num_replicas=4, level=level, seed=11),
    )
    collector = MetricsCollector(measure_start=0.0)
    cluster.add_clients(6, collector)
    cluster.run(2_500.0)
    return cluster, collector


def fingerprint(cluster, collector):
    totals = StageTimings()
    for sample in collector.samples:
        if sample.stages is not None:
            totals.add(sample.stages)
    summary = collector.summary()
    return {
        "committed": summary.committed,
        "aborted": summary.aborted,
        "replica_committed": sum(p.committed_count for p in cluster.replicas.values()),
        "replica_aborted": sum(p.aborted_count for p in cluster.replicas.values()),
        "certified": cluster.certifier.certified_count,
        "certification_aborts": cluster.certifier.abort_count,
        "commit_version": cluster.commit_version,
        "v_system": cluster.load_balancer.v_system,
        "stage_totals": {
            name: round(value, 6) for name, value in totals.as_dict().items()
        },
    }


class TestLegacyLevelEquivalence:
    @pytest.mark.parametrize("level", ["sc-coarse", "sc-fine", "session", "eager"])
    def test_matches_pre_refactor_baseline(self, level):
        cluster, collector = run_scenario(level)
        assert fingerprint(cluster, collector) == GOLDEN[level]


class TestOverloadKnobsDefaultsOff:
    """The overload-protection layer must be trace-neutral when off: passing
    every new knob at its default value reproduces the golden run exactly."""

    def test_explicit_default_knobs_are_byte_identical(self):
        cluster = ReplicatedDatabase(
            MicroBenchmark(update_types=10, rows_per_table=200),
            ClusterConfig(
                num_replicas=4,
                level="sc-coarse",
                seed=11,
                overload=None,
                certifier_queue_bound=None,
            ),
        )
        collector = MetricsCollector(measure_start=0.0)
        cluster.add_clients(6, collector, retry_aborts=False)
        cluster.run(2_500.0)
        assert fingerprint(cluster, collector) == GOLDEN["sc-coarse"]
        assert cluster.load_balancer.admission is None  # not configured, not built
        assert cluster.metrics.get("balancer.shed") == 0
        assert cluster.certifier.backpressure_rejects == 0


class TestAntiEntropyKnobsDefaultsOff:
    """The anti-entropy subsystem and the network delivery-fault knobs must
    be trace-neutral when off: passing every new knob at its default value
    reproduces the golden run exactly (digest maintenance is always on but
    is pure computation — no events, no RNG draws)."""

    def test_explicit_default_knobs_are_byte_identical(self):
        cluster = ReplicatedDatabase(
            MicroBenchmark(update_types=10, rows_per_table=200),
            ClusterConfig(
                num_replicas=4,
                level="sc-coarse",
                seed=11,
                scrub_interval_ms=None,
                scrub_deep=True,
                scrub_reply_timeout_ms=30.0,
                scrub_auto_repair=True,
                net_duplicate_prob=0.0,
                net_reorder_prob=0.0,
            ),
        )
        collector = MetricsCollector(measure_start=0.0)
        cluster.add_clients(6, collector)
        cluster.run(2_500.0)
        assert fingerprint(cluster, collector) == GOLDEN["sc-coarse"]
        assert cluster.scrubber is None
        assert cluster.network.injected_count == 0
        assert cluster.load_balancer.quarantine_count == 0


class TestBootstrapKnobsDefaultsOff:
    """The replica-lifecycle subsystem must be trace-neutral when off:
    passing every bootstrap knob at its default value reproduces the golden
    run exactly (the coordinator is not even constructed)."""

    def test_explicit_default_knobs_are_byte_identical(self):
        cluster = ReplicatedDatabase(
            MicroBenchmark(update_types=10, rows_per_table=200),
            ClusterConfig(
                num_replicas=4,
                level="sc-coarse",
                seed=11,
                bootstrap=None,
            ),
        )
        collector = MetricsCollector(measure_start=0.0)
        cluster.add_clients(6, collector)
        cluster.run(2_500.0)
        assert fingerprint(cluster, collector) == GOLDEN["sc-coarse"]
        assert cluster.bootstrap is None
        assert cluster.metrics.tree("bootstrap") is None
        assert all(
            p.checkpoints_installed == 0 for p in cluster.replicas.values()
        )


class TestHotPathOverhaul:
    """The wall-clock hot paths (zero-delay FIFO, pooled wakeup/delivery
    events, compiled SQL plans, engine fast paths) must be trace-neutral:
    a defaults run still reproduces the golden fingerprint exactly, while
    the fast paths demonstrably carry the traffic."""

    def test_defaults_run_is_byte_identical_and_fast_paths_exercised(self):
        cluster, collector = run_scenario("sc-coarse")
        assert fingerprint(cluster, collector) == GOLDEN["sc-coarse"]
        # The optimisations were actually on for that identical trace:
        assert cluster.env.immediate_scheduled > 0
        assert cluster.env.events_processed > 0
        assert len(cluster.env._wakeup_pool) > 0
        assert len(cluster.network._delivery_pool) > 0

    def test_stats_expose_kernel_and_storage_counters(self):
        cluster, _ = run_scenario("sc-coarse")
        metrics = cluster.metrics
        assert metrics.get("kernel.immediate_scheduled") > 0
        assert metrics.get("kernel.events_processed") > 0
        assert metrics.get("storage.scan_fallbacks") == 0  # indexed workload
        assert set(metrics.get("storage.plan_cache")) == {
            "size", "capacity", "hits", "misses", "evictions",
        }


class TestBoundedStaleness:
    def test_bounded_zero_is_byte_identical_to_sc_coarse(self):
        cluster, collector = run_scenario("relaxed:0")
        assert fingerprint(cluster, collector) == GOLDEN["sc-coarse"]

    def test_bounded_zero_passes_strong_consistency_audit(self):
        cluster, _ = run_scenario("relaxed:0")
        assert is_strongly_consistent(cluster.history)
        assert is_strongly_consistent(cluster.history, observational=False)

    def test_bounded_k_runs_end_to_end_within_bound(self):
        cluster, collector = run_scenario("relaxed:2")
        summary = collector.summary()
        assert summary.committed > 0
        # Every snapshot is at most k=2 versions behind the latest commit
        # acknowledged system-wide when the transaction was submitted.
        report = staleness_report(cluster.history)
        assert report["count"] > 0
        assert report["max"] <= 2
        assert cluster.metrics.get("cluster.level") == "RELAXED"
