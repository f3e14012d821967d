"""Overload protection: admission control, shedding, retry budgets.

The paper's lazy schemes delay transaction *start*, so under saturation the
delay queues at the load balancer and the CPU queues at the replicas grow
without bound — nothing in the original design protects the cluster from its
own clients.  This module holds the knobs and client-side mechanism of the
overload-protection layer (all opt-in; the defaults-off path is
trace-identical to a build without it):

* :class:`OverloadSettings` — the load balancer's admission-control
  parameters: a multiprogramming-level (MPL) cap per replica, a bounded
  pending queue in front of each replica, deadline-aware shedding and the
  retry-after hint carried by fast-reject responses.
* :class:`AdmissionControl` — the component that enforces them, which the
  balancer constructs only when it is given settings.
* :class:`RetryBudget` — the open-loop load's token bucket: retries are
  paid for by successes, so a transient spike cannot turn into a self-sustaining
  retry storm (the metastable-failure scenario the saturation bench
  demonstrates).

Shedding happens strictly **before** a transaction starts — a shed request
never reads a snapshot, never ships a writeset and never appears in the run
history — which is why admission control composes with every consistency
policy without weakening its guarantee (see ``docs/PROTOCOL.md``,
"Overload and flow control").
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Optional

from ..metrics.tracing import TRACER
from .messages import ClientRequest

__all__ = ["AdmissionControl", "OverloadSettings", "RetryBudget"]


@dataclass(frozen=True)
class OverloadSettings:
    """Admission-control parameters of one load balancer.

    ``mpl_cap`` bounds the transactions concurrently dispatched to each
    replica; arrivals beyond the cap wait in a per-replica pending queue of
    at most ``queue_depth`` entries and are fast-rejected (an ``Overloaded``
    response with ``retry_after_ms``) once the queue is full.  With
    ``shed_deadline_ms`` set, a request that cannot start within that many
    milliseconds of its submission — estimated at enqueue time from the
    queue depth and the observed service time, and re-checked at dequeue —
    is shed instead of occupying a slot it can no longer use.
    """

    #: per-replica cap on concurrently dispatched transactions
    mpl_cap: int
    #: bound of each replica's pending queue (0 = reject as soon as the
    #: replica is at its MPL cap)
    queue_depth: int = 64
    #: shed requests that cannot start within this budget of their
    #: submission (None = no deadline-aware shedding)
    shed_deadline_ms: Optional[float] = None
    #: retry-after hint carried by fast-reject responses
    retry_after_ms: float = 10.0

    def __post_init__(self):
        if self.mpl_cap < 1:
            raise ValueError("mpl_cap must be >= 1")
        if self.queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        if self.shed_deadline_ms is not None and self.shed_deadline_ms <= 0:
            raise ValueError("shed_deadline_ms must be positive")
        if self.retry_after_ms < 0:
            raise ValueError("retry_after_ms must be >= 0")


class AdmissionControl:
    """MPL slots, bounded queues and shedding of one load balancer.

    The balancer constructs it only when given settings (DESIGN.md D14)."""

    #: what a balancer without admission control reports for the names below
    IDLE_STATS = {"shed": 0, "deadline_shed": 0, "pending_depth": 0}

    def __init__(self, balancer, settings: OverloadSettings):
        self.balancer = balancer
        self.settings = settings
        #: per-replica bounded pending queues of ``(request, read_only)``
        self._pending: dict[str, deque] = defaultdict(deque)
        #: fast-rejects because the chosen replica's pending queue was full
        self.shed_count = 0
        #: sheds because the request could no longer meet its deadline
        self.deadline_shed_count = 0
        #: EWMA of observed dispatch→response time (the shedding estimate)
        self._service_ewma_ms: Optional[float] = None

    def stats(self) -> dict:
        """The ``balancer.*`` names this component owns."""
        return {
            "shed": self.shed_count,
            "deadline_shed": self.deadline_shed_count,
            "pending_depth": self.pending_depth(),
        }

    def admit(self, request: ClientRequest, read_only: bool) -> None:
        """Dispatch within the MPL cap, queue within the queue bound,
        fast-reject (or deadline-shed) beyond it."""
        balancer = self.balancer
        replica = balancer._pick_or_reject(request)
        if replica is None:
            return
        settings = self.settings
        if balancer._active_count[replica] < settings.mpl_cap:
            balancer._dispatch_now(request, replica, read_only)
            return
        queue = self._pending[replica]
        if len(queue) >= settings.queue_depth:
            self._shed(request, "admission queue full")
            return
        if settings.shed_deadline_ms is not None:
            # Estimated start time given the queue ahead of us: each MPL
            # slot turns over once per observed service time.
            wait = (len(queue) + 1) * self._service_estimate_ms() / settings.mpl_cap
            if balancer.env.now + wait > request.submit_time + settings.shed_deadline_ms:
                self._shed(request, "deadline unreachable at current depth",
                           deadline=True)
                return
        if TRACER.enabled and TRACER.is_sampled(request.request_id):
            # Admission queueing: the interval closes at dispatch (or shed).
            TRACER.mark(request.request_id, "lb.queue", balancer.env.now)
        queue.append((request, read_only))

    def _shed(self, request: ClientRequest, why: str, deadline: bool = False) -> None:
        """Refuse a request before it starts: an ``Overloaded`` fast-reject
        with a retry-after hint.  The shed is accounted as a network drop
        under "overload-shed" so audits see one drop breakdown."""
        balancer = self.balancer
        if deadline:
            self.deadline_shed_count += 1
        else:
            self.shed_count += 1
        if TRACER.enabled and TRACER.is_sampled(request.request_id):
            TRACER.span_since(
                request.request_id, "lb.queue", balancer.name, balancer.env.now,
                attrs={"shed": True},
            )
            TRACER.instant(
                "lb.shed", balancer.name, balancer.env.now,
                request_id=request.request_id,
                attrs={"why": why, "deadline": deadline},
            )
        balancer.network.record_drop("overload-shed")
        balancer._respond_failure(
            request, f"overloaded: {why}", "",
            overloaded=True, retry_after_ms=self.settings.retry_after_ms,
        )

    def observe(self, service_ms: float) -> None:
        """Fold one dispatch→response time into the service EWMA."""
        self._service_ewma_ms = (
            service_ms
            if self._service_ewma_ms is None
            else 0.8 * self._service_ewma_ms + 0.2 * service_ms
        )

    def _service_estimate_ms(self) -> float:
        """EWMA of dispatch→response time (1 ms prior before any sample)."""
        return self._service_ewma_ms if self._service_ewma_ms is not None else 1.0

    def pump(self, replica: str) -> None:
        """A slot freed up or the replica became routable: admit pending
        requests, shedding the ones whose deadline passed while they queued."""
        balancer = self.balancer
        settings = self.settings
        queue = self._pending.get(replica)
        while (
            queue
            and replica in balancer._routable
            and balancer._active_count.get(replica, 0) < settings.mpl_cap
        ):
            request, read_only = queue.popleft()
            if (
                settings.shed_deadline_ms is not None
                and balancer.env.now > request.submit_time + settings.shed_deadline_ms
            ):
                self._shed(request, "deadline exceeded while queued", deadline=True)
                continue
            balancer._dispatch_now(request, replica, read_only)

    def evacuate(self, replica: str) -> None:
        """Re-admit a no-longer-routable replica's queued (never dispatched)
        requests elsewhere; they shed normally if everywhere else is full."""
        queue = self._pending.get(replica)
        if queue:
            stranded = list(queue)
            queue.clear()
            for request, read_only in stranded:
                self.admit(request, read_only)

    def pending_depth(self, replica: Optional[str] = None) -> int:
        """Requests waiting in admission queues (one replica's, or all)."""
        if replica is not None:
            return len(self._pending.get(replica, ()))
        return sum(len(queue) for queue in self._pending.values())


class RetryBudget:
    """Token-bucket retry budget shared by an open-loop load's requests.

    The bucket starts full at ``burst`` tokens; every *successful* request
    deposits ``ratio`` tokens (capped at ``burst``) and every retry spends
    one.  In steady state retries are therefore capped at ``ratio`` times
    the success rate — a load spike can drain the burst allowance, but it
    cannot recruit the offered load into an open-ended retry storm that
    outlives the spike.
    """

    def __init__(self, ratio: float, burst: int = 10):
        if ratio < 0:
            raise ValueError("ratio must be >= 0")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.ratio = ratio
        self.burst = burst
        self.tokens = float(burst)
        #: retries paid for by the budget
        self.spent = 0
        #: retries the budget refused (the request fails to the caller)
        self.denied = 0

    def on_success(self) -> None:
        """Deposit the per-success allowance."""
        self.tokens = min(float(self.burst), self.tokens + self.ratio)

    def try_spend(self) -> bool:
        """Spend one token for a retry; False when the budget is exhausted."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.spent += 1
            return True
        self.denied += 1
        return False
