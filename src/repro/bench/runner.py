"""Experiment runner: one measured run of the replicated system.

A run follows the paper's methodology (Section V-A): deploy the cluster,
attach closed-loop clients, let the system warm up, then measure for a fixed
interval and report throughput, response time, and stage breakdowns.
All times are virtual; a given :class:`ExperimentConfig` is fully
deterministic in its cluster's seed.

Every measured cell of :mod:`repro.bench.experiments` is one
:func:`run_experiment` call.  Runs at one seed are already paired: each
client draws its calls and think times from its own named streams, so the
same seed issues the same per-client call sequences under every
consistency level.  Judging a claim over several seeds is the figure's
business, not the runner's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..core.cluster import ClusterConfig, ReplicatedDatabase
from ..histories.records import RunHistory
from ..metrics.collector import MetricsCollector, MetricsSummary
from ..metrics.profiler import PROFILER
from ..workloads.base import Workload

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one measured run."""

    workload_factory: Callable[[], Workload]
    #: the deployment the run builds: level, replicas, seed, history, ...
    cluster: ClusterConfig
    clients: int
    warmup_ms: float = 5_000.0
    measure_ms: float = 20_000.0
    retry_aborts: bool = False
    label: str = ""

    @property
    def total_ms(self) -> float:
        return self.warmup_ms + self.measure_ms


@dataclass(frozen=True)
class ExperimentResult:
    """Measured outcome of one run."""

    config: ExperimentConfig
    summary: MetricsSummary
    certified: int
    certification_aborts: int
    early_aborts: int
    final_commit_version: int
    #: the run's history, when its cluster records one
    history: Optional[RunHistory] = None

    @property
    def tps(self) -> float:
        return self.summary.tps

    @property
    def response_ms(self) -> float:
        return self.summary.mean_response_ms

    @property
    def sync_delay_ms(self) -> float:
        return self.summary.mean_sync_delay_ms


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Build the cluster, run warm-up + measurement, aggregate the metrics."""
    with PROFILER.section("cluster.build"):
        cluster = ReplicatedDatabase(config.workload_factory(), config.cluster)
        collector = MetricsCollector(
            measure_start=config.warmup_ms, measure_end=config.total_ms
        )
        cluster.add_clients(config.clients, collector, retry_aborts=config.retry_aborts)
    with PROFILER.section("run.warmup"):
        cluster.run(config.warmup_ms)
    with PROFILER.section("run.measure"):
        cluster.run(config.total_ms)
    PROFILER.count("kernel.events", cluster.env.events_processed)
    PROFILER.count("kernel.immediate", cluster.env.immediate_scheduled)

    return ExperimentResult(
        config=config,
        summary=collector.summary(),
        certified=cluster.certifier.certified_count,
        certification_aborts=cluster.certifier.abort_count,
        early_aborts=sum(p.early_abort_count for p in cluster.replicas.values()),
        final_commit_version=cluster.commit_version,
        history=cluster.history,
    )
