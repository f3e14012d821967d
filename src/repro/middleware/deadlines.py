"""Request deadlines, retry and fate resolution at the load balancer.

A timed-out read is re-routed to another replica (reads are idempotent).  A
timed-out update is never blindly retried: the certifier's decision log
resolves its fate (:class:`~.messages.FateQuery`) — a logged commit is
acknowledged, an unlogged one is fenced into a final abort and only then
retried under a fresh request id (see ``docs/PROTOCOL.md``).
"""

from __future__ import annotations

from dataclasses import replace

from ..metrics.tracing import TRACER
from ..sim.kernel import Event
from .messages import FateQuery, FateReply, TxnResponse, next_request_id

__all__ = ["RequestDeadlines"]

#: pause between two fate queries while the certifier does not answer
FATE_RETRY_MS = 25.0
#: fate queries before the outcome is reported unknown
FATE_QUERIES = 40


class RequestDeadlines:
    """Deadline timers, re-routing and fate resolution of one load balancer.

    See DESIGN.md D14.  The audit trail it writes (``retry_lineage``,
    ``fenced_request_ids``) stays on the balancer, where audits read it."""

    #: what a balancer without deadlines reports for the names below
    IDLE_STATS = dict.fromkeys(
        ("timed_out", "rerouted_reads", "retried_updates", "fate_commits",
         "fate_aborts", "unresolved"), 0
    )

    def __init__(self, balancer, deadline_ms: float, max_attempts: int):
        self.balancer = balancer
        self.deadline_ms = deadline_ms
        #: dispatch attempts per request before the client sees a failure
        self.max_attempts = max_attempts
        self._fate_waiters: dict[int, Event] = {}
        self.timed_out_count = 0
        self.rerouted_reads = 0
        self.retried_updates = 0
        self.fate_commits = 0
        self.fate_aborts = 0
        self.unresolved_count = 0

    def stats(self) -> dict:
        """The ``balancer.*`` names this component owns."""
        return {
            "timed_out": self.timed_out_count,
            "rerouted_reads": self.rerouted_reads,
            "retried_updates": self.retried_updates,
            "fate_commits": self.fate_commits,
            "fate_aborts": self.fate_aborts,
            "unresolved": self.unresolved_count,
        }

    def arm(self, request_id: int, attempts: int) -> None:
        """Start the deadline of one dispatch attempt."""
        balancer = self.balancer
        timer = balancer.env.timeout(self.deadline_ms)

        def _fire(_event):
            entry = balancer._outstanding.get(request_id)
            if entry is None or entry.attempts != attempts or entry.fate_pending:
                return  # answered, re-dispatched, or already being resolved
            self.timed_out_count += 1
            balancer._release_slot(entry)
            self.expire(request_id, entry, "deadline exceeded")

        timer.callbacks.append(_fire)

    def expire(self, request_id: int, entry, why: str) -> None:
        """A dispatch attempt is overdue (deadline or replica suspicion)."""
        if not entry.read_only:
            # Updates must never be blindly retried — resolve the fate first.
            entry.fate_pending = True
            self.balancer.env.process(
                self._resolve_fate(request_id, entry),
                name=f"{self.balancer.name}-fate-{request_id}",
            )
        elif self._retry_or_fail(request_id, entry, f"read-only transaction failed: {why}"):
            # Reads are idempotent: just try another replica.
            self.rerouted_reads += 1

    def observe_fate(self, reply: FateReply) -> None:
        waiter = self._fate_waiters.pop(reply.request_id, None)
        if waiter is not None and not waiter.triggered:
            waiter.succeed(reply)

    def _retry_or_fail(self, request_id: int, entry, failure: str) -> bool:
        """Retry on another replica while attempts remain (True); otherwise
        answer the client with ``failure`` (False)."""
        if entry.attempts >= self.max_attempts:
            self.balancer._fail(request_id, entry, f"{failure} ({entry.attempts} attempts)")
            return False
        self._redispatch(request_id, entry)
        return True

    def _redispatch(self, old_request_id: int, entry) -> None:
        """Retry elsewhere under a fresh request id (old ids may be fenced)
        with a recomputed consistency tag."""
        balancer = self.balancer
        replica = balancer._pick_replica(exclude=frozenset({entry.replica}))
        if replica is None:
            balancer.rejected_count += 1
            balancer._fail(old_request_id, entry, "no replicas available for retry")
            return
        del balancer._outstanding[old_request_id]
        lineage = balancer.retry_lineage.setdefault(
            entry.client_request.request_id, [entry.request.request_id]
        )
        request = replace(entry.request, request_id=next_request_id())
        lineage.append(request.request_id)
        if TRACER.enabled:
            TRACER.alias(old_request_id, request.request_id)
            if TRACER.is_sampled(request.request_id):
                TRACER.instant(
                    "lb.retry", balancer.name, balancer.env.now,
                    request_id=request.request_id,
                    attrs={
                        "previous_request_id": old_request_id,
                        "attempt": entry.attempts + 1,
                    },
                )
        entry.request = request
        entry.replica = replica
        entry.attempts += 1
        entry.fate_pending = False
        entry.counted = True
        balancer._send(entry)

    def _resolve_fate(self, request_id: int, entry):
        """Ask the certifier what happened to a timed-out update, retrying
        until answered (the certifier itself may be failing over)."""
        balancer = self.balancer
        env = balancer.env
        for _ in range(FATE_QUERIES):
            if balancer._outstanding.get(request_id) is not entry:
                return  # the real response arrived while we were asking
            waiter = Event(env)
            self._fate_waiters[request_id] = waiter
            balancer.network.send(
                balancer.name, balancer.certifier_name, FateQuery(request_id, balancer.name)
            )
            timer = env.timeout(FATE_RETRY_MS)
            yield env.any_of([waiter, timer])
            self._fate_waiters.pop(request_id, None)
            if waiter.triggered:
                self._conclude_fate(request_id, entry, waiter.value)
                return
        if balancer._outstanding.get(request_id) is entry:
            self.unresolved_count += 1
            balancer._fail(request_id, entry, "outcome unknown: certifier unreachable")

    def _conclude_fate(self, request_id: int, entry, reply: FateReply) -> None:
        balancer = self.balancer
        if balancer._outstanding.get(request_id) is not entry:
            return
        if reply.committed:
            # The decision log holds the commit; acknowledge it.  The
            # synthetic response tags the dispatch start version as the
            # snapshot (a valid lower bound) and the commit version as the
            # replica version the tracker advances to.
            self.fate_commits += 1
            tables = balancer.templates[entry.request.template].table_set
            balancer._relay(
                TxnResponse(
                    request_id=request_id,
                    session_id=entry.request.session_id,
                    reply_to=entry.request.reply_to,
                    replica=entry.replica,
                    committed=True,
                    commit_version=reply.commit_version,
                    abort_reason=None,
                    replica_version=reply.commit_version,
                    updated_tables=frozenset(tables),
                    stages=None,
                    snapshot_version=entry.start_version,
                )
            )
            return
        # Fenced: the abort is final, so retrying (with a fresh id) is safe.
        self.fate_aborts += 1
        balancer.fenced_request_ids.append(request_id)
        if self._retry_or_fail(request_id, entry, "update timed out; fate resolved as aborted"):
            self.retried_updates += 1
