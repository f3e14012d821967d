"""Metrics: throughput, response time, per-stage latency breakdowns,
the unified metrics registry, and per-transaction tracing."""

from .ascii_chart import line_chart
from .collector import MetricsCollector, MetricsSummary, TxnSample
from .profiler import PROFILER, Profiler
from .registry import MetricsRegistry, latest_registry
from .report import format_breakdown, format_series, format_table, render
from .stages import STAGE_NAMES, StageTimings
from .tracing import TRACER, Span, Tracer, trace_invariant_report

__all__ = [
    "MetricsCollector",
    "MetricsRegistry",
    "PROFILER",
    "Profiler",
    "Span",
    "TRACER",
    "Tracer",
    "line_chart",
    "latest_registry",
    "MetricsSummary",
    "STAGE_NAMES",
    "StageTimings",
    "TxnSample",
    "format_breakdown",
    "format_series",
    "format_table",
    "render",
    "trace_invariant_report",
]
