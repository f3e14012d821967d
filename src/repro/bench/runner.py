"""Experiment runner: one measured run of the replicated system.

A run follows the paper's methodology (Section V-A): deploy the cluster,
attach closed-loop clients, let the system warm up, then measure for a fixed
interval and report throughput, response time, and stage breakdowns.
All times are virtual; a given :class:`ExperimentConfig` is fully
deterministic in its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..core.cluster import ClusterConfig, ReplicatedDatabase
from ..core.policy import ConsistencyPolicy
from ..histories.checkers import (
    is_session_consistent,
    is_strongly_consistent,
)
from ..metrics.collector import MetricsCollector, MetricsSummary
from ..metrics.profiler import PROFILER
from ..middleware.perfmodel import PerformanceParams
from ..workloads.base import Workload

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "ReplicatedResult",
    "run_experiment",
    "run_replicated",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one measured run."""

    workload_factory: Callable[[], Workload]
    #: a registered policy spec or a policy instance
    level: "str | ConsistencyPolicy"
    num_replicas: int
    clients: int
    warmup_ms: float = 5_000.0
    measure_ms: float = 20_000.0
    seed: int = 0
    params: Optional[PerformanceParams] = None
    record_history: bool = False
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
    strongly_consistent: Optional[bool] = None
    session_consistent: Optional[bool] = None

    @property
    def tps(self) -> float:
        return self.summary.tps

    @property
    def response_ms(self) -> float:
        return self.summary.mean_response_ms

    @property
    def sync_delay_ms(self) -> float:
        return self.summary.mean_sync_delay_ms


@dataclass(frozen=True)
class ReplicatedResult:
    """Aggregate of several runs of one configuration (the paper's
    methodology: "Each experiment consists of 10 separate runs ... We
    report average measured values, with the deviation being less than 5%
    in all cases")."""

    config: ExperimentConfig
    runs: tuple[ExperimentResult, ...]

    @property
    def mean_tps(self) -> float:
        return sum(r.tps for r in self.runs) / len(self.runs)

    @property
    def mean_response_ms(self) -> float:
        return sum(r.response_ms for r in self.runs) / len(self.runs)

    @property
    def tps_deviation(self) -> float:
        """Max relative deviation of any run's TPS from the mean."""
        mean = self.mean_tps
        if mean == 0:
            return 0.0
        return max(abs(r.tps - mean) / mean for r in self.runs)

    @property
    def response_deviation(self) -> float:
        """Max relative deviation of any run's response time from the mean."""
        mean = self.mean_response_ms
        if mean == 0:
            return 0.0
        return max(abs(r.response_ms - mean) / mean for r in self.runs)


def run_replicated(config: ExperimentConfig, num_runs: int = 10) -> ReplicatedResult:
    """Run the experiment ``num_runs`` times with distinct seeds derived
    from ``config.seed`` and aggregate, as the paper's runs do."""
    if num_runs < 1:
        raise ValueError("num_runs must be >= 1")
    from dataclasses import replace

    runs = tuple(
        run_experiment(replace(config, seed=config.seed * 1_000 + i))
        for i in range(num_runs)
    )
    return ReplicatedResult(config=config, runs=runs)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Build the cluster, run warm-up + measurement, aggregate the metrics.

    When ``record_history`` is set, the run history is checked for strong
    and session consistency so experiments double as correctness evidence.
    """
    with PROFILER.section("cluster.build"):
        workload = config.workload_factory()
        cluster = ReplicatedDatabase(
            workload,
            ClusterConfig(
                num_replicas=config.num_replicas,
                level=config.level,
                seed=config.seed,
                params=config.params,
                record_history=config.record_history,
            ),
        )
        collector = MetricsCollector(
            measure_start=config.warmup_ms, measure_end=config.total_ms
        )
        cluster.add_clients(config.clients, collector, retry_aborts=config.retry_aborts)
    with PROFILER.section("run.warmup"):
        cluster.run(config.warmup_ms)
    with PROFILER.section("run.measure"):
        cluster.run(config.total_ms)

    early_aborts = sum(p.early_abort_count for p in cluster.replicas.values())
    strongly = session = None
    if config.record_history and cluster.history is not None:
        strongly = is_strongly_consistent(cluster.history)
        session = is_session_consistent(cluster.history, observational=True)

    return ExperimentResult(
        config=config,
        summary=collector.summary(),
        certified=cluster.certifier.certified_count,
        certification_aborts=cluster.certifier.abort_count,
        early_aborts=early_aborts,
        final_commit_version=cluster.commit_version,
        strongly_consistent=strongly,
        session_consistent=session,
    )
