"""Tests for the metrics collector and aggregation."""


import pytest

from repro.metrics import MetricsCollector, StageTimings


def sample(ack, submit=None, committed=True, is_update=False, stages=None):
    """The fields of one ``MetricsCollector.record`` call."""
    submit = ack - 10.0 if submit is None else submit
    stages = stages if stages is not None else StageTimings()
    return ("t", is_update, committed, submit, ack, stages)


class TestWindowing:
    def test_warmup_samples_discarded(self):
        collector = MetricsCollector(measure_start=100.0, measure_end=200.0)
        collector.record(*sample(ack=50.0))
        collector.record(*sample(ack=150.0))
        collector.record(*sample(ack=250.0))
        assert len(collector.samples) == 1
        assert collector.discarded == 2

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            MetricsCollector(measure_start=10.0, measure_end=10.0)

    def test_sample_counts_by_completion_time(self):
        collector = MetricsCollector(measure_start=100.0, measure_end=200.0)
        collector.record(*sample(ack=105.0, submit=90.0))  # started in warmup
        assert len(collector.samples) == 1


class TestSummary:
    def test_tps_uses_window_duration(self):
        collector = MetricsCollector(measure_start=0.0, measure_end=2_000.0)
        for i in range(10):
            collector.record(*sample(ack=100.0 + i))
        summary = collector.summary()
        assert summary.tps == pytest.approx(10 / 2.0)

    def test_tps_with_open_window_uses_last_ack(self):
        collector = MetricsCollector()
        collector.record(*sample(ack=500.0))
        collector.record(*sample(ack=1_000.0))
        summary = collector.summary()
        assert summary.tps == pytest.approx(2 / 1.0)

    def test_explicit_duration_override(self):
        collector = MetricsCollector()
        collector.record(*sample(ack=10.0))
        summary = collector.summary(duration_ms=500.0)
        assert summary.tps == pytest.approx(2.0)

    def test_aborted_counted_separately(self):
        collector = MetricsCollector()
        collector.record(*sample(ack=10.0))
        collector.record(*sample(ack=11.0, committed=False))
        summary = collector.summary(duration_ms=1_000.0)
        assert summary.committed == 1
        assert summary.aborted == 1
        assert summary.abort_rate == pytest.approx(0.5)

    def test_mean_response_only_committed(self):
        collector = MetricsCollector()
        collector.record(*sample(ack=20.0, submit=0.0))
        collector.record(*sample(ack=40.0, submit=30.0))
        collector.record(*sample(ack=99.0, submit=0.0, committed=False))
        summary = collector.summary(duration_ms=1_000.0)
        assert summary.mean_response_ms == pytest.approx(15.0)

    def test_p95_response(self):
        collector = MetricsCollector()
        for i in range(1, 101):
            collector.record(*sample(ack=float(i), submit=0.0))
        summary = collector.summary(duration_ms=1_000.0)
        assert summary.p95_response_ms == pytest.approx(95.0)

    def test_breakdowns_split_reads_and_updates(self):
        collector = MetricsCollector()
        collector.record(
            *sample(ack=10.0, is_update=False, stages=StageTimings(queries=2.0))
        )
        collector.record(
            *sample(ack=11.0, is_update=True, stages=StageTimings(queries=6.0, certify=1.0))
        )
        collector.record(
            *sample(ack=12.0, is_update=True, stages=StageTimings(queries=10.0, certify=3.0))
        )
        summary = collector.summary(duration_ms=1_000.0)
        assert summary.read_only_count == 1
        assert summary.update_count == 2
        assert summary.read_only_breakdown.queries == pytest.approx(2.0)
        assert summary.update_breakdown.queries == pytest.approx(8.0)
        assert summary.update_breakdown.certify == pytest.approx(2.0)

    def test_sync_delay_mean(self):
        collector = MetricsCollector()
        collector.record(*sample(ack=10.0, stages=StageTimings(version=4.0)))
        collector.record(*sample(ack=11.0, stages=StageTimings(global_=8.0)))
        summary = collector.summary(duration_ms=1_000.0)
        assert summary.mean_sync_delay_ms == pytest.approx(6.0)

    def test_none_stages_tolerated(self):
        collector = MetricsCollector()
        collector.record("t", False, True, 0.0, 5.0, None)
        summary = collector.summary(duration_ms=1_000.0)
        assert summary.committed == 1
        assert summary.mean_sync_delay_ms == 0.0

    def test_empty_collector_summary(self):
        summary = MetricsCollector().summary(duration_ms=1_000.0)
        assert summary.tps == 0.0
        assert summary.mean_response_ms == 0.0
        assert summary.abort_rate == 0.0


class TestTimeline:
    def test_buckets_count_committed_by_ack(self):
        collector = MetricsCollector(measure_start=0.0, measure_end=3_000.0)
        for ack in (100.0, 200.0, 1_500.0, 2_500.0, 2_600.0, 2_700.0):
            collector.record(*sample(ack=ack))
        collector.record(*sample(ack=1_600.0, committed=False))
        timeline = collector.timeline(bucket_ms=1_000.0)
        assert [t for t, _ in timeline] == [0.0, 1_000.0, 2_000.0]
        assert [tps for _, tps in timeline] == [2.0, 1.0, 3.0]

    def test_open_window_uses_observed_range(self):
        collector = MetricsCollector()
        collector.record(*sample(ack=500.0))
        collector.record(*sample(ack=1_900.0))
        timeline = collector.timeline(bucket_ms=1_000.0)
        assert len(timeline) == 2

    def test_empty_timeline(self):
        assert MetricsCollector().timeline() == []

    def test_invalid_bucket_rejected(self):
        with pytest.raises(ValueError):
            MetricsCollector().timeline(bucket_ms=0.0)
