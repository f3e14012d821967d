"""Performance model of the simulated cluster.

The paper's testbed: each replica is a commodity dual-core machine running a
standalone DBMS; one extra machine hosts the certifier; Gigabit Ethernet
connects everything.  We model:

* each replica's **CPU** as a :class:`~repro.sim.resources.Resource` with
  ``cores`` slots — client statement execution, local commits and refresh
  application all compete for it (this contention is what limits scalability
  on update-heavy mixes);
* the **certifier** as a single-slot resource whose service time includes the
  durable log write (the paper moves durability to the certifier and turns
  off log-forcing in the replicas);
* per-replica **speed factors** (slight heterogeneity) — the source of the
  slowest-replica penalty that the eager approach pays on every commit round.

All service times are lognormal around the configured means; every stream is
seeded per replica so configurations are comparable run-to-run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..sim.rng import Rng

__all__ = ["PerformanceParams", "ReplicaPerformance", "CertifierPerformance"]


@dataclass(frozen=True)
class PerformanceParams:
    """Mean service times (ms) and shape parameters of the cluster model.

    The defaults are calibrated for the micro-benchmark (single-statement
    transactions on 2008-era hardware); the TPC-W workload supplies its own
    statement costs per template on top of these.
    """

    #: mean CPU time to execute one read statement
    read_stmt_ms: float = 0.55
    #: mean CPU time to execute one update/insert/delete statement
    write_stmt_ms: float = 1.1
    #: fixed part of a local commit
    commit_base_ms: float = 0.45
    #: per-writeset-op part of a local commit
    commit_per_op_ms: float = 0.12
    #: fixed part of applying a refresh transaction
    refresh_base_ms: float = 0.25
    #: per-op part of applying a refresh transaction
    refresh_per_op_ms: float = 0.45
    #: fixed certification cost (conflict check)
    certify_base_ms: float = 0.12
    #: per-op certification cost
    certify_per_op_ms: float = 0.02
    #: durable log append at the certifier (battery-backed/SSD-class)
    certifier_log_ms: float = 0.3
    #: EAGER only: synchronous commit acknowledgment at each replica.
    #: The lazy configurations run replicas with log-forcing off because the
    #: certifier is the durability point (Tashkent); the eager approach must
    #: instead make every replica's commit durable *before* answering the
    #: client, paying a log-force-class I/O delay per replica per commit
    #: round.  Flushes serialize on a per-replica log device (capacity-1),
    #: so the delay queues up as replica count and update rate grow — the
    #: cost Section III-A attributes to committing "on all replicas
    #: synchronously".
    eager_flush_base_ms: float = 1.0
    eager_flush_per_op_ms: float = 0.5
    #: coefficient of variation of all service times
    cv: float = 0.3
    #: CPU slots per replica (Core 2 Duo -> 2)
    cores: int = 2
    #: replicas draw a speed factor uniformly from [1, 1 + spread]
    replica_speed_spread: float = 0.2

    def with_overrides(self, **kwargs) -> "PerformanceParams":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)


class ReplicaPerformance:
    """Per-replica service-time sampler."""

    def __init__(self, params: PerformanceParams, rng: Rng, speed_factor: float = 1.0):
        if speed_factor <= 0:
            raise ValueError(f"speed factor must be positive, got {speed_factor}")
        self.params = params
        self.rng = rng
        self.speed_factor = speed_factor

    def _sample(self, mean: float) -> float:
        return self.rng.lognormal_service(mean * self.speed_factor, self.params.cv)

    def read_statement(self, cost_ms: Optional[float] = None) -> float:
        """Service time for one read statement (workload may override the
        mean for complex queries)."""
        return self._sample(cost_ms if cost_ms is not None else self.params.read_stmt_ms)

    def write_statement(self, cost_ms: Optional[float] = None) -> float:
        """Service time for one update/insert/delete statement."""
        return self._sample(cost_ms if cost_ms is not None else self.params.write_stmt_ms)

    def commit(self, writeset_size: int) -> float:
        """Service time for a local commit of ``writeset_size`` ops."""
        return self._sample(
            self.params.commit_base_ms + self.params.commit_per_op_ms * writeset_size
        )

    def refresh(self, writeset_size: int) -> float:
        """Service time to apply a refresh writeset of ``writeset_size`` ops."""
        return self._sample(
            self.params.refresh_base_ms + self.params.refresh_per_op_ms * writeset_size
        )

    def eager_commit_flush(self, writeset_size: int) -> float:
        """I/O delay to durably acknowledge one commit in the EAGER
        configuration (zero when the model disables it)."""
        mean = (
            self.params.eager_flush_base_ms
            + self.params.eager_flush_per_op_ms * writeset_size
        )
        if mean <= 0:
            return 0.0
        return self._sample(mean)


class CertifierPerformance:
    """Certifier-side service-time sampler (certification + durable log)."""

    def __init__(self, params: PerformanceParams, rng: Rng):
        self.params = params
        self.rng = rng

    def certify(self, writeset_size: int) -> float:
        """Service time to certify and durably log one writeset."""
        mean = (
            self.params.certify_base_ms
            + self.params.certify_per_op_ms * writeset_size
            + self.params.certifier_log_ms
        )
        return self.rng.lognormal_service(mean, self.params.cv)


def draw_speed_factors(params: PerformanceParams, rng: Rng, count: int) -> list[float]:
    """Speed factors for ``count`` replicas: the first replica is the
    reference machine (factor 1.0), the rest draw uniformly from
    ``[1, 1 + spread]``.  A zero spread models a perfectly homogeneous
    cluster (used by the ablation bench)."""
    factors = [1.0]
    for _ in range(count - 1):
        factors.append(1.0 + rng.uniform(0.0, params.replica_speed_spread))
    return factors[:count]
