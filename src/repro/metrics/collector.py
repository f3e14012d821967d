"""Metrics collection.

The paper reports (Section V): system throughput in committed transactions
per second (TPS); response time from transaction start to commit
acknowledgment (ms); the per-stage latency breakdown; and the
synchronization delay (the synchronization *start* delay for the lazy
configurations, the *global commit* delay for EAGER).

:class:`MetricsCollector` accumulates those from the client side, honouring a
warm-up interval exactly like the paper's runs (measurements before
``measure_start`` are discarded).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .stages import StageTimings

__all__ = ["TxnSample", "MetricsCollector", "MetricsSummary"]


@dataclass(slots=True)
class TxnSample:
    """One measured client transaction.

    Slotted, not frozen: a run retains one per transaction, and a frozen
    dataclass pays an ``object.__setattr__`` per field to build one."""

    template: str
    is_update: bool
    committed: bool
    submit_time: float
    ack_time: float
    stages: Optional[StageTimings]

    @property
    def response_time(self) -> float:
        return self.ack_time - self.submit_time


@dataclass(frozen=True)
class MetricsSummary:
    """Aggregated results of one measurement interval."""

    duration_ms: float
    committed: int
    aborted: int
    tps: float
    mean_response_ms: float
    p50_response_ms: float
    p95_response_ms: float
    p99_response_ms: float
    mean_sync_delay_ms: float
    read_only_breakdown: StageTimings
    update_breakdown: StageTimings
    read_only_count: int
    update_count: int

    @property
    def abort_rate(self) -> float:
        total = self.committed + self.aborted
        return self.aborted / total if total else 0.0


class MetricsCollector:
    """Client-side accumulator with a warm-up window."""

    def __init__(self, measure_start: float = 0.0, measure_end: float = math.inf):
        if measure_end <= measure_start:
            raise ValueError("measure_end must be after measure_start")
        self.measure_start = measure_start
        self.measure_end = measure_end
        self.samples: list[TxnSample] = []
        self.discarded = 0

    def record(self, sample: TxnSample) -> None:
        """Record a finished transaction; warm-up/cool-down samples are
        discarded (a transaction counts if it *completes* in the window)."""
        if sample.ack_time < self.measure_start or sample.ack_time > self.measure_end:
            self.discarded += 1
            return
        self.samples.append(sample)

    def timeline(self, bucket_ms: float = 1_000.0) -> list[tuple[float, float]]:
        """Throughput over time: ``(bucket_start_ms, tps)`` per bucket.

        Buckets span the measurement window (or the observed ack range when
        the window is open-ended); committed transactions are bucketed by
        acknowledgment time.  Useful for spotting warm-up transients and
        fault-injection dips.
        """
        if bucket_ms <= 0:
            raise ValueError("bucket_ms must be positive")
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

    # -- aggregation ---------------------------------------------------------
    def summary(self, duration_ms: Optional[float] = None) -> MetricsSummary:
        """Aggregate the recorded samples.

        ``duration_ms`` defaults to the configured measurement window; pass
        it explicitly when the run was stopped early.
        """
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
