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
import struct
from array import array
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import add, sub
from typing import Optional

from .stages import StageTimings

__all__ = ["TxnSample", "MetricsCollector", "MetricsSummary"]

#: flag bits of one recorded sample
_UPDATE, _COMMITTED, _STAGED = 1, 2, 4
#: doubles per sample: submit and ack time, then the six stages in
#: ``STAGE_NAMES`` order (zeros when the response carried no stages)
_WIDTH = 8
_pack_row = struct.Struct(f"{_WIDTH}d").pack  # one C call, not eight appends


@dataclass(slots=True)
class TxnSample:
    """One measured client transaction (built on read: the collector keeps none)."""

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
    """Client-side accumulator with a warm-up window.

    Keeps columns, not objects: per in-window sample a template id, a flag
    byte and ``_WIDTH`` doubles, aggregated in record order (DESIGN.md D15)."""

    def __init__(self, measure_start: float = 0.0, measure_end: float = math.inf):
        if measure_end <= measure_start:
            raise ValueError("measure_end must be after measure_start")
        self.measure_start = measure_start
        self.measure_end = measure_end
        self.discarded = 0
        self._template_ids: dict[str, int] = {}  # insertion order is id order
        self._template_of = array("I")
        self._flags = bytearray()
        self._values = array("d")

    def record(self, template: str, is_update: bool, committed: bool, submit_time: float,
               ack_time: float, stages: Optional[StageTimings]) -> None:
        """Record a finished transaction; warm-up/cool-down samples are
        discarded (a transaction counts if it *completes* in the window).
        ``stages`` is copied, not kept."""
        if ack_time < self.measure_start or ack_time > self.measure_end:
            self.discarded += 1
            return
        self._template_of.append(
            self._template_ids.setdefault(template, len(self._template_ids)))
        if stages is None:
            self._flags.append(is_update | committed << 1)
            self._values.frombytes(_pack_row(submit_time, ack_time, 0, 0, 0, 0, 0, 0))
        else:
            self._flags.append(is_update | committed << 1 | _STAGED)
            self._values.frombytes(_pack_row(
                submit_time, ack_time, stages.version, stages.queries, stages.certify,
                stages.sync, stages.commit, stages.global_))

    @property
    def samples(self) -> tuple[TxnSample, ...]:
        """The recorded samples in record order, built when read, never stored."""
        values, templates = self._values, list(self._template_ids)
        return tuple(
            TxnSample(templates[template_id], bool(flags & _UPDATE), bool(flags & _COMMITTED),
                      values[i], values[i + 1],
                      StageTimings(*values[i + 2:i + _WIDTH]) if flags & _STAGED else None)
            for i, template_id, flags in zip(
                range(0, len(values), _WIDTH), self._template_of, self._flags)
        )

    def _where(self, required: int, excluded: int = 0) -> list[bool]:
        """Per-sample mask: every ``required`` flag set, no ``excluded`` one."""
        return [(flags & (required | excluded)) == required for flags in self._flags]

    def timeline(self, bucket_ms: float = 1_000.0) -> list[tuple[float, float]]:
        """Throughput over time: ``(bucket_start_ms, tps)`` per bucket.

        Buckets span the measurement window (or the observed ack range when
        the window is open-ended); committed transactions are bucketed by
        acknowledgment time.  Useful for spotting warm-up transients and
        fault-injection dips.
        """
        if bucket_ms <= 0:
            raise ValueError("bucket_ms must be positive")
        acks = list(compress(self._values[1::_WIDTH], self._where(_COMMITTED)))
        if not acks:
            return []
        start = self.measure_start
        end = self.measure_end
        if math.isinf(end):
            end = max(acks)
        buckets = max(1, math.ceil((end - start) / bucket_ms))
        counts = [0] * buckets
        for ack in acks:
            index = min(buckets - 1, int((ack - start) // bucket_ms))
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
        values = self._values
        acks = values[1::_WIDTH]
        if duration_ms is None:
            if math.isinf(self.measure_end):
                last = max(acks, default=self.measure_start)
                duration_ms = max(last - self.measure_start, 1e-9)
            else:
                duration_ms = self.measure_end - self.measure_start

        committed = self._where(_COMMITTED)
        staged = self._where(_COMMITTED | _STAGED)
        read_only = self._where(_COMMITTED | _STAGED, _UPDATE)
        updates = self._where(_COMMITTED | _STAGED | _UPDATE)
        response_times = sorted(map(sub, compress(acks, committed),
                                    compress(values[0::_WIDTH], committed)))
        sync_delays = list(map(add, compress(values[2::_WIDTH], staged),  # version + global
                               compress(values[7::_WIDTH], staged)))
        return MetricsSummary(
            duration_ms=duration_ms,
            committed=len(response_times),
            aborted=len(committed) - len(response_times),
            tps=len(response_times) / (duration_ms / 1000.0),
            mean_response_ms=_mean(response_times),
            p50_response_ms=_percentile(response_times, 0.50),
            p95_response_ms=_percentile(response_times, 0.95),
            p99_response_ms=_percentile(response_times, 0.99),
            mean_sync_delay_ms=_mean(sync_delays),
            read_only_breakdown=self._mean_stages(read_only),
            update_breakdown=self._mean_stages(updates),
            read_only_count=sum(read_only),
            update_count=sum(updates),
        )

    def _mean_stages(self, mask: list[bool]) -> StageTimings:
        # A left fold from 0.0 in record order: StageTimings.add's arithmetic.
        total = StageTimings(*(
            reduce(add, compress(self._values[offset::_WIDTH], mask), 0.0)
            for offset in range(2, _WIDTH)
        ))
        count = sum(mask)
        return total.scaled(1.0 / count) if count else total


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[index]
