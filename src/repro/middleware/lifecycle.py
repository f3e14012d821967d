"""The transaction lifecycle — one routed request through the stage pipeline.

:class:`TxnLifecycle` is the explicit form of what used to be one 270-line
proxy coroutine: each of the paper's stages (**version** → **queries** →
**certify** → **sync** → **commit** → **global**) is its own generator
method, the per-stage :class:`~repro.metrics.stages.StageTimings` are
derived by the stage framework (every stage is timed by the driver, not by
hand-placed ``env.now`` spans), and the previously copy-pasted exit paths
collapse into two signals:

* :class:`StageAbort` — the transaction aborts and the client is told why
  (early certification, storage errors, certification conflicts,
  certifier failover);
* :class:`ReplicaCrashed` — the replica crashed under the transaction; the
  process exits without responding (the client observes the failure via
  the balancer's fault path).

Which stages run is decided by the transaction's shape (read-only
transactions skip certify/sync) and the proxy's
:class:`~repro.core.policy.ConsistencyPolicy` (the *global* stage runs only
for policies that wait for the global commit).
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

from ..metrics.stages import StageTimings
from ..metrics.tracing import TRACER
from ..sim.kernel import Event
from ..storage.errors import StorageError, TransactionAborted
from .context import TxnContext
from .messages import CertifyReply, CertifyRequest, RoutedRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..storage.transaction import Transaction
    from .proxy import ReplicaProxy

__all__ = [
    "CertifierUnavailable",
    "ReplicaCrashed",
    "StageAbort",
    "TxnAbandoned",
    "TxnLifecycle",
]


class ReplicaCrashed(Exception):
    """Internal signal: the replica crashed while a transaction was in
    flight; the transaction process exits without responding."""


class TxnAbandoned(ReplicaCrashed):
    """The certify (or global-commit) wait exceeded the proxy's
    ``certify_timeout_ms``.

    Subclasses :class:`ReplicaCrashed` because the exit discipline is the
    same: roll back locally and **never respond** — the certifier may have
    committed the writeset, so answering "aborted" here could contradict the
    durable decision.  The load balancer's request deadline resolves the
    client-visible fate through the certifier's decision log instead.
    """


class CertifierUnavailable(Exception):
    """The certifier failed over while a certification (or an EAGER global
    commit) was in flight."""


class StageAbort(Exception):
    """Internal signal: abort the transaction and answer the client.

    ``early`` marks aborts decided locally by early certification (they
    count toward the proxy's ``early_abort_count``).
    """

    def __init__(self, reason: str, early: bool = False):
        super().__init__(reason)
        self.reason = reason
        self.early = early


class TxnLifecycle:
    """Drives one routed transaction through the stage pipeline on one
    replica proxy."""

    def __init__(self, proxy: "ReplicaProxy", routed: RoutedRequest):
        self.proxy = proxy
        self.routed = routed
        self.request = routed.request
        self.stages = StageTimings()
        self.txn: Optional["Transaction"] = None
        self.result: Any = None
        self.writeset = None
        self.commit_version: Optional[int] = None
        #: predecessor vector from the certify reply (None: the full prefix)
        self.certify_prevs: Optional[tuple] = None
        #: version reserved at the applier for our pending local commit
        self.reserved_version: Optional[int] = None
        #: set once the local DBMS commit succeeded — a later crash must
        #: neither abort the transaction nor count it as aborted
        self.committed_locally = False

    # -- driver --------------------------------------------------------------
    def run(self):
        """The transaction process: stages in order, two unified exits.

        Stage timing is inlined rather than routed through :meth:`_timed`:
        every kernel resume traverses the whole ``yield from`` chain, so
        one less delegation frame is paid back on every event of every
        transaction.
        """
        self.proxy.executed_count += 1
        stages = self.stages
        env = self.proxy.env
        traced = TRACER.enabled and TRACER.is_sampled(self.request.request_id)
        try:
            start = env._now
            try:
                yield from self._stage_version()
            finally:
                stages.version = env._now - start
                if traced:
                    self._trace_stage("version", start, env._now)
            start = env._now
            try:
                yield from self._stage_queries()
            finally:
                stages.queries = env._now - start
                if traced:
                    self._trace_stage("queries", start, env._now)
            if self.txn.is_read_only:
                start = env._now
                try:
                    yield from self._stage_commit_read_only()
                finally:
                    stages.commit = env._now - start
                    if traced:
                        self._trace_stage("commit", start, env._now)
            else:
                self._final_doom_check()
                start = env._now
                try:
                    yield from self._stage_certify()
                finally:
                    stages.certify = env._now - start
                    if traced:
                        self._trace_stage("certify", start, env._now)
                start = env._now
                try:
                    yield from self._stage_sync()
                finally:
                    stages.sync = env._now - start
                    if traced:
                        self._trace_stage("sync", start, env._now)
                start = env._now
                try:
                    yield from self._stage_commit()
                finally:
                    stages.commit = env._now - start
                    if traced:
                        self._trace_stage("commit", start, env._now)
                if self.proxy.policy.waits_for_global_commit:
                    start = env._now
                    try:
                        yield from self._stage_global()
                    finally:
                        stages.global_ = env._now - start
                        if traced:
                            self._trace_stage("global", start, env._now)
            self._respond(committed=True)
        except StageAbort as abort:
            self._exit_abort(abort)
        except ReplicaCrashed:
            self._exit_crashed()

    def _trace_stage(self, stage: str, start: float, end: float) -> None:
        """Record one pipeline-stage span (called only for sampled txns)."""
        TRACER.record(
            f"proxy.{stage}",
            self.proxy.name,
            start,
            end,
            request_id=self.request.request_id,
            txn_id=self.txn.txn_id if self.txn is not None else None,
            commit_version=self.commit_version,
        )

    # -- stages ---------------------------------------------------------------
    def _stage_version(self):
        """Synchronization start delay: wait until ``V_local`` reaches the
        request's consistency tag."""
        proxy = self.proxy
        if self.routed.start_version > proxy.clock.version:
            yield proxy.clock.wait_for(self.routed.start_version)
            if proxy.crashed:
                raise ReplicaCrashed

    def _stage_queries(self):
        """Begin on the latest local snapshot (GSI), run the template body,
        then charge the statement service times to the replica CPU."""
        proxy = self.proxy
        txn = proxy.engine.begin()
        self.txn = txn
        proxy._executing[txn.txn_id] = txn
        ctx = TxnContext(proxy, txn)
        template = proxy.templates[self.request.template]
        try:
            self.result = template.body(ctx, dict(self.request.params))
        except TransactionAborted as exc:
            raise StageAbort(str(exc), early=True) from None
        except StorageError as exc:
            raise StageAbort(str(exc)) from None
        except Exception as exc:  # template bug: abort and report, don't hang
            raise StageAbort(
                f"template {self.request.template!r} raised {type(exc).__name__}: {exc}"
            ) from None

        for cost in ctx.statement_costs:
            yield from proxy.cpu.use(cost)
            if proxy.crashed or not txn.is_active:
                raise ReplicaCrashed
            doom = proxy._doomed.get(txn.txn_id)
            if doom is not None:
                raise StageAbort(doom, early=True)
        proxy._executing.pop(txn.txn_id, None)

    def _stage_commit_read_only(self):
        """Read-only fast path: commit locally, consume no version."""
        proxy = self.proxy
        yield from proxy.cpu.use(proxy.perf.commit(0))
        if proxy.crashed or not self.txn.is_active:
            raise ReplicaCrashed
        proxy.engine.commit_read_only(self.txn)
        self.committed_locally = True
        proxy.committed_count += 1

    def _final_doom_check(self) -> None:
        """Last local early-certification check before involving the
        certifier."""
        doom = self.proxy._doomed.pop(self.txn.txn_id, None)
        if doom is not None:
            raise StageAbort(doom, early=True)

    def _stage_certify(self):
        """Ship the writeset to the certifier and await its decision."""
        proxy = self.proxy
        txn = self.txn
        self.writeset = txn.writeset
        waiter = Event(proxy.env)
        proxy._certify_waiters[self.request.request_id] = waiter
        readset = frozenset(txn.read_keys) if proxy.certify_reads else None
        proxy.network.send(
            proxy.name,
            proxy.certifier_name,
            CertifyRequest(
                txn_id=txn.txn_id,
                origin=proxy.name,
                snapshot_version=txn.snapshot_version,
                writeset=self.writeset,
                request_id=self.request.request_id,
                readset=readset,
            ),
        )
        try:
            if proxy.certify_timeout_ms is not None:
                timer = proxy.env.timeout(proxy.certify_timeout_ms)
                yield proxy.env.any_of([waiter, timer])
                if not waiter.triggered:
                    # No decision within the bound: the certifier is dead,
                    # partitioned, or its reply was lost.  Abandon silently
                    # (see TxnAbandoned) and leave no dangling waiter.
                    proxy._certify_waiters.pop(self.request.request_id, None)
                    proxy.abandoned_count += 1
                    raise TxnAbandoned
                reply: CertifyReply = waiter.value
            else:
                reply = yield waiter
        except CertifierUnavailable as exc:
            raise StageAbort(str(exc)) from None
        if proxy.crashed or not txn.is_active:
            raise ReplicaCrashed
        if not reply.certified:
            if reply.overloaded:
                # Backpressure reject: the certifier refused the request
                # before deciding anything, so the abort is retryable.
                raise StageAbort("certifier overloaded: certification shed")
            raise StageAbort(
                f"certification conflict with committed v{reply.conflict_with}"
            )
        self.commit_version = reply.commit_version
        self.certify_prevs = reply.prev_versions

    def _stage_sync(self):
        """Wait for this commit's predecessors to be applied locally,
        holding the reservation the applier honours for our commit version.

        Without a vector (one certifier shard, or a replayed decision at
        any shard count) that is the full prefix ``1..commit_version-1``.
        With one it is only the per-partition predecessors it lists —
        commits of unrelated partitions are not waited for, which is the
        paper-level win of partitioning the refresh stream.
        """
        proxy = self.proxy
        self.reserved_version = self.commit_version
        proxy._reserved.add(self.commit_version)
        proxy._wake_applier()
        if self.certify_prevs is None:
            yield proxy.clock.wait_for(self.commit_version - 1)
        else:
            for p, prev in self.certify_prevs:
                # ``has_applied`` first: partition clocks are soft state,
                # the database is the ground truth after a crash/replay.
                while not proxy.engine.database.has_applied(prev):
                    yield proxy.partition_clocks[p].wait_for(prev)
                    if proxy.crashed:
                        raise ReplicaCrashed
        if proxy.crashed:
            # The decision is durable at the certifier; the local commit is
            # lost until recovery replay.  No response (client sees failure).
            raise ReplicaCrashed

    def _stage_commit(self):
        """Commit at the assigned global version and report progress."""
        proxy = self.proxy
        commit_version = self.commit_version
        yield from proxy.cpu.use(proxy.perf.commit(len(self.writeset)))
        if proxy.crashed or not self.txn.is_active:
            # ``not is_active``: a crash and a recovery both fell inside
            # the hold, and the crash aborted the transaction.
            raise ReplicaCrashed
        prevs = self.certify_prevs
        after = None if prevs is None else tuple(prev for _p, prev in prevs)
        proxy.engine.commit_certified(self.txn, commit_version, after)
        proxy._reserved.discard(commit_version)
        self.reserved_version = None
        self.committed_locally = True
        proxy.committed_count += 1
        proxy._publish_applied(commit_version, prevs, len(self.writeset))

    def _stage_global(self):
        """Wait for the certifier's global-commit notice before
        acknowledging the client (policies with a global commit round)."""
        proxy = self.proxy
        notice = Event(proxy.env)
        proxy._global_waiters[self.request.request_id] = notice
        try:
            if proxy.certify_timeout_ms is not None:
                timer = proxy.env.timeout(proxy.certify_timeout_ms)
                yield proxy.env.any_of([notice, timer])
                if not notice.triggered:
                    # The transaction is durably decided and committed here;
                    # only the global round is overdue (certifier loss, or a
                    # co-crashed replica that will never report).  Degrade
                    # to acknowledging now, like the failover path below.
                    proxy._global_waiters.pop(self.request.request_id, None)
            else:
                yield notice
        except CertifierUnavailable:
            # The decision is durable and the transaction is committed;
            # only the global acknowledgment round was lost to the
            # failover.  Acknowledge the client — the in-flight window's
            # eager guarantee degrades exactly as in a real failover.
            pass
        if proxy.crashed:
            raise ReplicaCrashed

    # -- exits -----------------------------------------------------------------
    def _exit_abort(self, abort: StageAbort) -> None:
        """Unified abort exit: roll back, count, answer the client."""
        self.proxy._finish_abort(self.txn, abort.reason)
        if abort.early:
            self.proxy.early_abort_count += 1
        self._respond(committed=False, abort_reason=abort.reason)

    def _exit_crashed(self) -> None:
        """Unified crash exit: release the reservation, roll back anything
        not yet locally committed, never respond."""
        if self.reserved_version is not None:
            self.proxy._reserved.discard(self.reserved_version)
        if self.txn is not None and not self.committed_locally:
            self.proxy._finish_abort(self.txn, "replica crashed")

    def _respond(self, committed: bool, abort_reason: Optional[str] = None) -> None:
        self.proxy._respond(
            self.request,
            self.stages,
            committed=committed,
            commit_version=self.commit_version if committed else None,
            abort_reason=abort_reason,
            updated_tables=(
                self.writeset.tables
                if committed and self.writeset is not None
                else frozenset()
            ),
            snapshot_version=self.txn.snapshot_version if self.txn is not None else 0,
            result=self.result if committed else None,
        )
