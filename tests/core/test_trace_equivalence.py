"""Tracing must be a pure observer of the simulation.

Three families of evidence:

1. **Fingerprint neutrality** — tracing never schedules events, yields, or
   draws from an RNG stream, so even a fully *enabled* tracer reproduces
   the golden defaults-off fingerprint byte-identically, at any sample
   rate (hypothesis sweeps the rate).
2. **Causal completeness** — for every committed update inside the
   replication horizon the trace contains exactly one certification span
   and exactly one refresh-apply span per non-originating live replica;
   checked on the default, partitioned, and bootstrap catch-up paths.
3. **Reconciliation** — per-stage span sums agree with the latency
   breakdown the metrics collector reports for the same run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClusterConfig, ReplicatedDatabase
from repro.metrics import MetricsCollector, TRACER, trace_invariant_report
from repro.metrics.stages import STAGE_NAMES, StageTimings
from tests.core.test_equivalence import GOLDEN, fingerprint

WORKLOAD = dict(update_types=10, rows_per_table=200)


@pytest.fixture(autouse=True)
def _clean_global_tracer():
    TRACER.disable()
    TRACER.reset()
    yield
    TRACER.disable()
    TRACER.reset()


def _run(level="sc-coarse", duration=2_500.0, clients=6,
         **config_kwargs):
    from repro.workloads import MicroBenchmark

    cluster = ReplicatedDatabase(
        MicroBenchmark(**WORKLOAD),
        ClusterConfig(num_replicas=4, level=level, seed=11, **config_kwargs),
    )
    collector = MetricsCollector(measure_start=0.0)
    cluster.add_clients(clients, collector)
    cluster.run(duration)
    return cluster, collector


class TestFingerprintNeutrality:
    def test_enabled_tracing_reproduces_the_golden_fingerprint(self):
        """Same scenario as the defaults-off golden test, but with the
        tracer fully on — the virtual-time fingerprint must not move."""
        cluster, collector = _run(trace_enabled=True)
        assert fingerprint(cluster, collector) == GOLDEN["sc-coarse"]
        assert len(TRACER) > 0  # and it really was recording

    @settings(max_examples=5, deadline=None)
    @given(rate=st.floats(min_value=0.0, max_value=1.0,
                          allow_nan=False, allow_infinity=False))
    def test_any_sample_rate_leaves_the_fingerprint_unchanged(self, rate):
        """Sampled tracing is decided by hashing the request id, never by
        an RNG draw, so every rate yields the identical simulation."""
        TRACER.disable()
        TRACER.reset()
        baseline = _baseline_small_fingerprint()
        cluster, collector = _run_small(trace_enabled=True,
                                        trace_sample_rate=rate)
        assert fingerprint(cluster, collector) == baseline

    def test_trace_buffer_overflow_is_also_neutral(self):
        cluster, collector = _run_small(trace_enabled=True, trace_buffer=64)
        assert fingerprint(cluster, collector) == _baseline_small_fingerprint()
        assert len(TRACER) <= 64
        assert TRACER.dropped > 0


def _run_small(**config_kwargs):
    return _run(duration=600.0, clients=4, **config_kwargs)


_SMALL_BASELINE = []


def _baseline_small_fingerprint():
    if not _SMALL_BASELINE:
        enabled = TRACER.enabled
        TRACER.disable()
        try:
            cluster, collector = _run_small()
            _SMALL_BASELINE.append(fingerprint(cluster, collector))
        finally:
            if enabled:
                TRACER.enable()
    return _SMALL_BASELINE[0]


def _horizon(cluster):
    return min(p.v_local for p in cluster.replicas.values())


class TestCausalInvariants:
    def test_default_path_one_cert_one_apply_per_live_replica(self):
        cluster, _ = _run(trace_enabled=True)
        report = trace_invariant_report(
            TRACER.spans,
            expected_refresh_appliers=len(cluster.replicas) - 1,
            up_to_version=_horizon(cluster),
        )
        assert report["versions"] > 0
        assert report["violations"] == []

    def test_partitioned_path_holds_the_same_invariant(self):
        cluster, _ = _run(trace_enabled=True, num_partitions=2)
        spans = TRACER.spans
        # One certification span name for every shard count (slot waits are
        # their own spans), always carrying both attributes.
        certifications = [s for s in spans if s.name == "certifier.certify"]
        assert certifications
        assert all(
            {"outcome", "cross_partition"} <= set(s.attrs) for s in certifications
        )
        assert any(s.name.startswith("certifier.shard.") for s in spans)
        report = trace_invariant_report(
            spans,
            expected_refresh_appliers=len(cluster.replicas) - 1,
            up_to_version=_horizon(cluster),
        )
        assert report["versions"] > 0
        assert report["violations"] == []

    def test_bootstrap_catch_up_replays_are_traced_refresh_applies(self):
        """A replica joining mid-run catches up by replaying the decision
        log through the same refresh-apply choke point, so versions it
        replayed reach the full applier count; versions it received inside
        the bootstrap checkpoint are exempt."""
        from repro.workloads import MicroBenchmark

        cluster = ReplicatedDatabase(
            MicroBenchmark(**WORKLOAD),
            ClusterConfig.elastic(num_replicas=3, seed=11, level="sc-fine",
                                  trace_enabled=True),
        )
        cluster.add_clients(6)
        cluster.run(800.0)
        joiner = cluster.add_replica_online()
        cluster.run(2_000.0)
        cluster.quiesce(max_wait_ms=60_000.0)

        proxy = cluster.replicas[joiner]
        assert proxy.checkpoints_installed == 1
        joiner_applies = {
            s.commit_version
            for s in TRACER.spans
            if s.name == "refresh.apply" and s.component == joiner
        }
        assert joiner_applies, "joiner recorded no refresh-apply spans"
        # Versions up to the checkpoint reached the joiner in bulk (no
        # per-version apply); everything after was replayed through the
        # traced choke point.  The cutoff is the first replayed version.
        first_replayed = min(joiner_applies)
        assert first_replayed > 1, "checkpoint should cover a prefix"
        horizon = _horizon(cluster)
        spans = [
            s for s in TRACER.spans
            if s.commit_version is None or s.commit_version >= first_replayed
        ]
        report = trace_invariant_report(
            spans,
            expected_refresh_appliers=3,  # 4 replicas post-join, minus origin
            up_to_version=horizon,
        )
        assert report["versions"] > 0
        assert report["violations"] == []


class TestReconciliation:
    def test_span_sums_reconcile_with_the_latency_breakdown(self):
        """The acceptance check behind ``repro fig5 --trace``: summing the
        proxy stage spans reproduces the collector's per-stage breakdown.
        Spans cover every attempt (including transactions still in flight
        at the end of the run), so span sums bound the collector totals
        from above, tightly."""
        cluster, collector = _run(trace_enabled=True)
        totals = StageTimings()
        for sample in collector.samples:
            if sample.stages is not None:
                totals.add(sample.stages)
        collector_totals = totals.as_dict()
        span_totals = {name: 0.0 for name in STAGE_NAMES}
        for span in TRACER.spans:
            stage = span.name.removeprefix("proxy.")
            if span.name.startswith("proxy.") and stage in span_totals:
                span_totals[stage] += span.duration
        for stage in STAGE_NAMES:
            reported = collector_totals[stage]
            traced = span_totals[stage]
            assert traced >= reported - 1e-6, stage
            if reported > 1.0:  # meaningful stages reconcile tightly
                assert traced - reported <= 0.05 * reported, (
                    stage, traced, reported
                )
