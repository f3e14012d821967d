"""Closed-loop clients — the remote terminal emulator (RTE).

The paper drives the system with a multi-threaded RTE in which each thread
represents one client issuing requests in a closed loop: submit a
transaction, wait for the outcome, think, repeat.  Each client is one
simulation process here.  A client's identifier doubles as its session
identifier — the SESSION configuration tracks versions per client, exactly
as in the paper.
"""

from __future__ import annotations

from typing import Optional

from ..metrics.collector import MetricsCollector
from ..metrics.tracing import TRACER
from ..middleware.messages import ClientRequest, next_request_id
from ..middleware.overload import RetryBudget
from ..sim.kernel import Environment, Event
from ..sim.network import Network
from ..sim.rng import RngRegistry
from .base import Workload

__all__ = ["ClientPool", "OpenLoopLoad", "backoff_delay_ms"]

#: the first retry's delay, before jitter
RETRY_BACKOFF_MS = 5.0
#: growth factor of the delay per further attempt
BACKOFF_MULTIPLIER = 2.0
#: the largest fraction of a delay that jitter takes off
BACKOFF_JITTER = 0.5
#: sessions an open-loop load spreads its requests over
OPEN_LOOP_SESSIONS = 8


def backoff_delay_ms(attempt: int, rng=None, cap_ms: float = 100.0) -> float:
    """Exponential retry backoff with jitter and a cap.

    ``RETRY_BACKOFF_MS * BACKOFF_MULTIPLIER**(attempt-1)``, capped at
    ``cap_ms``, then reduced by up to ``BACKOFF_JITTER`` of itself when an
    ``rng`` is given — full-jitter style, so a burst of clients aborted by
    the same conflict doesn't retry in lockstep and recreate the conflict.
    ``attempt`` counts from 1 (the first retry).
    """
    if attempt < 1:
        raise ValueError("attempt counts from 1")
    delay = min(RETRY_BACKOFF_MS * BACKOFF_MULTIPLIER ** (attempt - 1), cap_ms)
    if rng is not None:
        delay *= 1.0 - BACKOFF_JITTER * rng.random()
    return delay


class ClientPool:
    """Spawns and owns the closed-loop client processes of one run."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        workload: Workload,
        collector: MetricsCollector,
        balancer_name: str = "lb",
        rngs: Optional[RngRegistry] = None,
        retry_aborts: bool = False,
    ):
        self.env = env
        self.network = network
        self.workload = workload
        self.collector = collector
        self.balancer_name = balancer_name
        self.rngs = rngs if rngs is not None else RngRegistry(0)
        self.retry_aborts = retry_aborts
        self.client_ids: list[str] = []
        self.completed = 0

    def spawn(self, count: int, prefix: str = "client") -> list[str]:
        """Create ``count`` clients; returns their identifiers."""
        created = []
        for _ in range(count):
            client_id = f"{prefix}-{len(self.client_ids)}"
            self.client_ids.append(client_id)
            created.append(client_id)
            mailbox = self.network.register(client_id)
            self.env.process(
                self._client_loop(client_id, mailbox), name=f"{client_id}-loop"
            )
        return created

    def _client_loop(self, client_id: str, mailbox):
        mix_rng = self.rngs.stream(f"{client_id}:mix")
        think_rng = self.rngs.stream(f"{client_id}:think")
        # Backoff jitter draws from its own stream so enabling retries does
        # not perturb the mix/think sequences of any client.
        backoff_rng = self.rngs.stream(f"{client_id}:backoff")
        catalog = self.workload.catalog()
        while True:
            call = self.workload.next_call(client_id, mix_rng)
            template = catalog.get(call.template)
            is_update = template.is_update if template is not None else False
            attempts = 0
            while True:
                attempts += 1
                submit_time = self.env.now
                request = ClientRequest(
                    request_id=next_request_id(),
                    template=call.template,
                    params=call.params,
                    session_id=client_id,
                    reply_to=client_id,
                    submit_time=submit_time,
                )
                self.network.send(client_id, self.balancer_name, request)
                response = yield mailbox.receive()
                while response.request_id != request.request_id:
                    # A network copy of an earlier answer (at-least-once
                    # delivery), not the answer to this request.
                    response = yield mailbox.receive()
                self.completed += 1
                if TRACER.enabled and TRACER.is_sampled(request.request_id):
                    # The end-to-end client span: submit → acknowledgment.
                    TRACER.record(
                        "client.request", client_id, submit_time, self.env.now,
                        request_id=request.request_id,
                        commit_version=response.commit_version,
                        attrs={
                            "template": call.template,
                            "committed": response.committed,
                            "attempt": attempts,
                        },
                    )
                committed, retry_after_ms = response.committed, response.retry_after_ms
                self.collector.record(call.template, is_update, committed,
                                      submit_time, self.env.now, response.stages)
                del response  # frees the stage timings the collector just copied
                if committed or not self.retry_aborts:
                    break
                delay = backoff_delay_ms(attempts, rng=backoff_rng)
                if retry_after_ms is not None:
                    delay = max(delay, retry_after_ms)
                yield self.env.timeout(delay)
            think = self.workload.think_time_ms(client_id, think_rng)
            if think > 0:
                yield self.env.timeout(think)


class OpenLoopLoad:
    """Open-loop (rate-driven) load generator.

    Closed-loop clients self-throttle: when the system slows down, so do
    they, which is exactly why they can never exhibit saturation collapse or
    metastable retry storms.  This generator issues requests at a Poisson
    ``rate_tps`` *regardless of completions* — offered load is an input, not
    a consequence — and each in-flight request retries independently under
    the configured backoff/budget rules.  :meth:`set_rate` changes the rate
    mid-run (the saturation bench's spike).

    One sample is recorded per *logical* request, with ``submit_time`` of
    the first attempt and the final outcome — response time therefore
    includes retry delays, and ``collector.timeline()`` over committed
    samples is the goodput curve.
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        workload: Workload,
        collector: MetricsCollector,
        rate_tps: float,
        balancer_name: str = "lb",
        rngs: Optional[RngRegistry] = None,
        name: str = "openloop",
        retry_aborts: bool = False,
        max_attempts: int = 8,
        retry_budget_ratio: Optional[float] = None,
        retry_backoff_cap_ms: float = 100.0,
    ):
        if rate_tps < 0:
            raise ValueError("rate_tps must be >= 0")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.env = env
        self.network = network
        self.workload = workload
        self.collector = collector
        self.rate_tps = rate_tps
        self.balancer_name = balancer_name
        self.rngs = rngs if rngs is not None else RngRegistry(0)
        self.name = name
        self.retry_aborts = retry_aborts
        self.max_attempts = max_attempts
        self.retry_backoff_cap_ms = retry_backoff_cap_ms
        #: retries paid for by successes (None = unbounded retries)
        self.retry_budget: Optional[RetryBudget] = (
            RetryBudget(retry_budget_ratio)
            if retry_budget_ratio is not None
            else None
        )
        self._catalog = workload.catalog()
        # All requests share one endpoint; its handler fans the responses
        # out to per-request waiters by request id.
        self.mailbox = network.register(name, self._handle)
        self._waiters: dict[int, Event] = {}
        self._backoff_rng = self.rngs.stream(f"{name}:backoff")
        #: logical requests issued / finished / committed
        self.offered = 0
        self.completed = 0
        self.committed = 0
        #: Overloaded fast-rejects observed (attempt-level)
        self.shed_responses = 0
        #: logical requests abandoned with the retry budget exhausted
        self.budget_denied = 0
        self.env.process(self._arrivals(), name=f"{name}-arrivals")

    def set_rate(self, rate_tps: float) -> None:
        """Change the offered load (takes effect at the next arrival)."""
        if rate_tps < 0:
            raise ValueError("rate_tps must be >= 0")
        self.rate_tps = rate_tps

    def _arrivals(self):
        arrival_rng = self.rngs.stream(f"{self.name}:arrivals")
        mix_rng = self.rngs.stream(f"{self.name}:mix")
        seq = 0
        while True:
            if self.rate_tps <= 0:
                yield self.env.timeout(1.0)
                continue
            yield self.env.timeout(arrival_rng.exponential(1000.0 / self.rate_tps))
            session_id = f"{self.name}-s{seq % OPEN_LOOP_SESSIONS}"
            call = self.workload.next_call(session_id, mix_rng)
            self.env.process(
                self._request(session_id, call), name=f"{self.name}-req-{seq}"
            )
            seq += 1

    def _handle(self, response) -> None:
        waiter = self._waiters.pop(response.request_id, None)
        if waiter is not None and not waiter.triggered:
            waiter.succeed(response)

    def _request(self, session_id: str, call):
        template = self._catalog.get(call.template)
        is_update = template.is_update if template is not None else False
        self.offered += 1
        first_submit = self.env.now
        attempts = 0
        while True:
            attempts += 1
            request = ClientRequest(
                request_id=next_request_id(),
                template=call.template,
                params=call.params,
                session_id=session_id,
                reply_to=self.name,
                submit_time=self.env.now,
            )
            waiter = Event(self.env)
            self._waiters[request.request_id] = waiter
            self.network.send(self.name, self.balancer_name, request)
            response = yield waiter
            if response.committed:
                self.committed += 1
                if self.retry_budget is not None:
                    self.retry_budget.on_success()
                break
            if response.overloaded:
                self.shed_responses += 1
            if not self.retry_aborts or attempts >= self.max_attempts:
                break
            if self.retry_budget is not None and not self.retry_budget.try_spend():
                self.budget_denied += 1
                break
            delay = backoff_delay_ms(
                attempts, rng=self._backoff_rng, cap_ms=self.retry_backoff_cap_ms,
            )
            if response.retry_after_ms is not None:
                delay = max(delay, response.retry_after_ms)
            yield self.env.timeout(delay)
        self.completed += 1
        if TRACER.enabled and TRACER.is_sampled(request.request_id):
            TRACER.record(
                "client.request", session_id, first_submit, self.env.now,
                request_id=request.request_id,
                commit_version=response.commit_version,
                attrs={
                    "template": call.template,
                    "committed": response.committed,
                    "attempt": attempts,
                },
            )
        self.collector.record(call.template, is_update, response.committed,
                              first_submit, self.env.now, response.stages)
