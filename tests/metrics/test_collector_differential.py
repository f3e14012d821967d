"""Differential test: the columnar ``MetricsCollector`` against the
list-of-``TxnSample`` collector it replaced.

The collector keeps each in-window sample as a row of flat columns and
aggregates them in record order.  The reference below keeps one
``TxnSample`` per sample and aggregates exactly as the collector used to.
Fed the same streams, the two must agree on every ``MetricsSummary`` field
and every timeline point with ``==`` (the arithmetic is the same, so the
doubles are the same), and ``samples`` must give back what was recorded.
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import Optional

from hypothesis import given, settings, strategies as st

from repro.metrics import MetricsCollector, MetricsSummary, StageTimings, TxnSample


class ReferenceCollector:
    """The collector as it was: one retained ``TxnSample`` per sample."""

    def __init__(self, measure_start: float = 0.0, measure_end: float = math.inf):
        self.measure_start = measure_start
        self.measure_end = measure_end
        self.samples: list[TxnSample] = []
        self.discarded = 0

    def record(self, sample: TxnSample) -> None:
        if sample.ack_time < self.measure_start or sample.ack_time > self.measure_end:
            self.discarded += 1
            return
        self.samples.append(sample)

    def timeline(self, bucket_ms: float = 1_000.0) -> list[tuple[float, float]]:
        committed = [s for s in self.samples if s.committed]
        if not committed:
            return []
        start = self.measure_start
        end = self.measure_end
        if math.isinf(end):
            end = max(s.ack_time for s in committed)
        buckets = max(1, math.ceil((end - start) / bucket_ms))
        counts = [0] * buckets
        for sample in committed:
            index = min(buckets - 1, int((sample.ack_time - start) // bucket_ms))
            counts[index] += 1
        return [
            (start + i * bucket_ms, count / (bucket_ms / 1000.0))
            for i, count in enumerate(counts)
        ]

    def summary(self, duration_ms: Optional[float] = None) -> MetricsSummary:
        if duration_ms is None:
            if math.isinf(self.measure_end):
                last = max((s.ack_time for s in self.samples), default=self.measure_start)
                duration_ms = max(last - self.measure_start, 1e-9)
            else:
                duration_ms = self.measure_end - self.measure_start

        committed = [s for s in self.samples if s.committed]
        aborted = [s for s in self.samples if not s.committed]
        response_times = sorted(s.response_time for s in committed)
        mean_response = _mean(response_times)
        sync_delays = [
            s.stages.synchronization_delay for s in committed if s.stages is not None
        ]

        read_only = [s for s in committed if not s.is_update and s.stages is not None]
        updates = [s for s in committed if s.is_update and s.stages is not None]

        return MetricsSummary(
            duration_ms=duration_ms,
            committed=len(committed),
            aborted=len(aborted),
            tps=len(committed) / (duration_ms / 1000.0),
            mean_response_ms=mean_response,
            p50_response_ms=_percentile(response_times, 0.50),
            p95_response_ms=_percentile(response_times, 0.95),
            p99_response_ms=_percentile(response_times, 0.99),
            mean_sync_delay_ms=_mean(sync_delays),
            read_only_breakdown=_mean_stages([s.stages for s in read_only]),
            update_breakdown=_mean_stages([s.stages for s in updates]),
            read_only_count=len(read_only),
            update_count=len(updates),
        )


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[index]


def _mean_stages(stage_list: list[StageTimings]) -> StageTimings:
    total = StageTimings()
    for stages in stage_list:
        total.add(stages)
    if not stage_list:
        return total
    return total.scaled(1.0 / len(stage_list))


# -- streams -------------------------------------------------------------------
durations = st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False)
stage_timings = st.builds(
    StageTimings, durations, durations, durations, durations, durations, durations
)


@st.composite
def windows(draw) -> tuple[float, float]:
    start = draw(st.floats(min_value=0.0, max_value=10_000.0, allow_nan=False))
    if draw(st.booleans()):
        return start, math.inf  # open-ended
    width = draw(st.floats(min_value=1e-3, max_value=10_000.0, allow_nan=False))
    return start, start + width


@st.composite
def streams(draw):
    """A window and samples whose acks fall before, at the bounds of,
    inside and after it."""
    start, end = draw(windows())
    last = start + 20_000.0 if math.isinf(end) else end
    acks = st.one_of(
        st.just(start),
        st.just(last),
        st.floats(min_value=max(0.0, start - 1_000.0), max_value=start, allow_nan=False),
        st.floats(min_value=start, max_value=last, allow_nan=False),
        st.floats(min_value=last, max_value=last + 1_000.0, allow_nan=False),
    )
    samples = []
    for _ in range(draw(st.integers(min_value=0, max_value=120))):
        ack = draw(acks)
        samples.append(TxnSample(
            template=draw(st.sampled_from(["browse", "buy", "pay"])),
            is_update=draw(st.booleans()),
            committed=draw(st.booleans()),
            submit_time=ack - draw(durations),
            ack_time=ack,
            stages=draw(st.none() | stage_timings),
        ))
    return start, end, samples


def feed(start: float, end: float, samples: list[TxnSample]):
    collector = MetricsCollector(start, end)
    reference = ReferenceCollector(start, end)
    for s in samples:
        collector.record(
            s.template, s.is_update, s.committed, s.submit_time, s.ack_time, s.stages
        )
        reference.record(s)
    return collector, reference


def assert_same(collector: MetricsCollector, reference: ReferenceCollector,
                duration_ms: Optional[float] = None,
                bucket_ms: float = 1_000.0) -> None:
    got, want = collector.summary(duration_ms), reference.summary(duration_ms)
    for field in fields(MetricsSummary):
        assert getattr(got, field.name) == getattr(want, field.name), field.name
    assert collector.timeline(bucket_ms) == reference.timeline(bucket_ms)
    assert collector.discarded == reference.discarded
    assert len(collector.samples) == len(reference.samples)
    for mine, theirs in zip(collector.samples, reference.samples):
        for field in fields(TxnSample):
            assert getattr(mine, field.name) == getattr(theirs, field.name), field.name


@settings(max_examples=300)
@given(
    stream=streams(),
    duration_ms=st.none() | st.floats(min_value=1.0, max_value=20_000.0),
    bucket_ms=st.floats(min_value=1.0, max_value=3_000.0),
)
def test_columns_aggregate_like_a_list_of_samples(stream, duration_ms, bucket_ms):
    start, end, samples = stream
    collector, reference = feed(start, end, samples)
    assert_same(collector, reference, duration_ms, bucket_ms)


def test_more_than_256_templates():
    names = [f"template-{i}" for i in range(300)]
    samples = [
        TxnSample(names[i % len(names)], i % 3 == 0, i % 5 != 0, float(i), i + 1.5,
                  StageTimings(version=float(i), global_=0.5) if i % 2 else None)
        for i in range(900)
    ]
    collector, reference = feed(0.0, math.inf, samples)
    assert len({s.template for s in collector.samples}) == 300
    assert_same(collector, reference)
