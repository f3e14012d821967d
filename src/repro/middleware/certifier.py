"""The certifier (Section IV of the paper).

The certifier (a) decides whether an update transaction commits, (b)
maintains the total order of committed update transactions, (c) ensures the
durability of its decisions, and (d) forwards the updates of every committed
transaction to the other replicas as refresh writesets.

A transaction T can commit iff its writeset does not write-conflict with the
writesets of transactions that committed since T started (generalized
snapshot isolation's first-committer-wins rule, applied globally).

When the configured :class:`~repro.core.policy.ConsistencyPolicy` tracks
global commits (EAGER), the certifier also maintains a per-commit counter of
replicas that have applied the commit, and notifies the originating replica
once the counter reaches the replica count (the *global commit*).

Self-healing extensions (all opt-in, see ``docs/PROTOCOL.md``):

* **Heartbeat membership** — with :class:`~.heartbeat.HeartbeatSettings`
  the certifier monitors the replicas itself: a replica that misses enough
  heartbeats is excluded from propagation and EAGER counting, and re-admitted
  when it answers again (or when its :class:`~.messages.RecoveryRequest`
  arrives).  Pings to replicas piggyback ``V_commit`` so a replica that lost
  refresh writesets to a partition can detect the gap.
* **Fate resolution with fencing** — the load balancer resolves the fate of
  a timed-out update through :class:`~.messages.FateQuery`.  A decided
  commit is answered from the request index over the decision log; an
  undecided request is *fenced* (a later certification of it aborts), which
  makes the abort answer final: an acknowledged commit is never doubled and
  never lost.
* **Semi-synchronous standby** — with ``standby_name`` set, each decision is
  shipped to the standby as a :class:`~.messages.DecisionRecord` and only
  *released* (reply + refresh fan-out + fate answers) once the standby acks
  it, so a promotion never loses an acknowledged commit.  A standby that
  stops acking degrades the primary to asynchronous shipping after
  ``STANDBY_ACK_TIMEOUT_MS`` (counted in ``standby_sync_timeouts``).

Table-group partitioning (``partition_map``) shards only the certifier's
*service*: for every shard count there is one decision log, one
certification index and one commit pipeline (:meth:`Certifier._certify`),
which holds the :class:`~.shards.CertifierShard` slot of each partition a
transaction touches.  The monolithic certifier is the one-shard case.
"""

from __future__ import annotations

from itertools import takewhile
from typing import Optional

from ..core.partition import PartitionMap
from ..core.policy import resolve_policy
from ..metrics.tracing import TRACER
from ..sim.kernel import Environment, Event
from ..sim.network import Mailbox, Network
from ..storage.digest import DigestTracker
from .certindex import CertificationIndex
from .durability import DecisionLog, LogEntry
from .heartbeat import HeartbeatMonitor, HeartbeatSettings
from .messages import (
    CatchUpRequest,
    CertifyReply,
    CertifyRequest,
    CommitApplied,
    DecisionAck,
    DecisionRecord,
    FateQuery,
    FateReply,
    GlobalCommitNotice,
    HeartbeatAck,
    HeartbeatPing,
    RecoveryReply,
    RecoveryRequest,
    RefreshWriteset,
    StandbyPromoted,
)
from .perfmodel import CertifierPerformance
from .shards import CertifierShard

__all__ = ["Certifier"]

#: how long a decision waits for the standby's ack before its release anyway
STANDBY_ACK_TIMEOUT_MS = 10.0


class Certifier:
    """Certification, total ordering, durability and update propagation."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        perf: CertifierPerformance,
        replica_names: list[str],
        level,
        name: str = "certifier",
        log: Optional[DecisionLog] = None,
        heartbeat: Optional[HeartbeatSettings] = None,
        standby_name: Optional[str] = None,
        epoch: int = 1,
        inbound_queue_bound: Optional[int] = None,
        partition_map: Optional[PartitionMap] = None,
        departed_grace_ms: Optional[float] = None,
        digest_tracker: Optional[DigestTracker] = None,
    ):
        if inbound_queue_bound is not None and inbound_queue_bound < 1:
            raise ValueError("inbound_queue_bound must be >= 1")
        self.env = env
        self.network = network
        self.perf = perf
        self.replica_names = list(replica_names)
        self.policy = resolve_policy(level)
        self.name = name
        #: the one decision log, in commit-version order, whole writesets —
        #: the durability point for every shard count
        self.log = log if log is not None else DecisionLog()
        #: table-group partitioning of the service (None = one partition)
        self.partition_map = partition_map or PartitionMap(1)
        #: per-partition service slots (+ newest commit and counters)
        self.shards: dict[int, CertifierShard] = {
            p: CertifierShard(env, p)
            for p in range(self.partition_map.num_partitions)
        }
        # The shard count decides exactly two things, both fixed here (the
        # two-decision rule, DESIGN.md D5).  Dispatch: one shard keeps the
        # endpoint busy while it certifies, so control messages queue behind
        # it (the paper's serial server); several run one process per request.
        self._concurrent = len(self.shards) > 1
        # Predecessor vectors at commit and replay: only with several
        # shards, because a single partition's predecessor is always v-1.
        self._vectors = len(self.shards) > 1
        #: anti-entropy expectation oracle (None = scrubbing disabled): fed
        #: every certified writeset, it answers what any replica's per-table
        #: digests must be at any un-truncated version
        self.digest_tracker = digest_tracker
        self.mailbox: Mailbox = network.register(name, self._handle)
        # Replica progress: newest version each replica reported applied.
        self.applied_versions: dict[str, int] = {r: 0 for r in self.replica_names}
        # Progress of replicas removed from membership (crashed but may
        # return): bounds log truncation so their recovery replay stays
        # possible.
        self._departed_versions: dict[str, int] = {}
        #: grace period (ms) after which a departed replica stops pinning
        #: the replication horizon (None = pin forever, so the decision
        #: log grows without bound while a replica stays away)
        self.departed_grace_ms = departed_grace_ms
        self._departed_since: dict[str, float] = {}
        # Global-commit bookkeeping (policies with tracks_global_commit):
        # version -> set of replicas that applied it, and version ->
        # (origin, request_id) awaiting global commit.
        self._applied_by: dict[int, set[str]] = {}
        self._awaiting_global: dict[int, tuple[str, int]] = {}
        # Fate resolution: request_id -> commit version for every logged
        # decision (rebuilt from the log, so it survives failover), plus the
        # request ids the certifier aborted or fenced.
        self._derive_from_log()
        self._aborted_requests: set[int] = set()
        self._fenced: set[int] = set()
        # Semi-synchronous standby shipping.
        self.standby_name = standby_name
        self._record_waiters: dict[int, Event] = {}
        #: versions appended but not yet released (standby ack outstanding);
        #: fate queries for them are deferred until release.
        self._unreleased: set[int] = set()
        #: failover epoch this certifier belongs to (bumped per promotion)
        self.epoch = epoch
        #: bound on the inbound queue behind which a CertifyRequest may wait
        #: (None = unbounded); beyond it the certifier sheds the request
        #: with an ``overloaded`` reply *without* spending certification
        #: time — backpressure the origin proxy reports to the client as a
        #: retryable abort
        self.inbound_queue_bound = inbound_queue_bound
        # Counters for tests/metrics.
        self.certified_count = 0
        self.abort_count = 0
        #: commits whose writeset touched exactly one partition
        self.single_partition_commits = 0
        #: commits that held the slots of several partitions
        self.cross_partition_commits = 0
        #: shard-service acquisitions a cross-partition certification had
        #: to wait for (contention caused by multi-shard coordination)
        self.cross_shard_stalls = 0
        #: departed-replica horizon pins released by the grace period
        self.departed_purged = 0
        #: recovery requests refused because the log was truncated past the
        #: replica's durable version (it must not be re-admitted)
        self.stale_recovery_refusals = 0
        #: catch-up replays served to bootstrapping replicas (replays
        #: *without* re-admission — see middleware/bootstrap.py)
        self.catch_up_replays = 0
        #: certifications refused by the inbound-queue bound
        self.backpressure_rejects = 0
        #: already-decided requests redelivered by the network and answered
        #: by re-sending the original decision instead of re-certifying
        self.duplicate_certify_requests = 0
        #: row comparisons performed by conflict detection; the scaling
        #: bench and CI perf smoke key on this, not wall-clock
        self.row_comparisons = 0
        self.fenced_aborts = 0
        self.fate_queries = 0
        self.standby_sync_timeouts = 0
        #: set by halt(): a halted certifier makes no further decisions.
        self.halted = False
        #: heartbeat monitor over the replicas (None = detection disabled)
        self.monitor: Optional[HeartbeatMonitor] = None
        if heartbeat is not None:
            self.monitor = HeartbeatMonitor(
                env,
                network,
                owner=self.name,
                targets=list(self.replica_names),
                settings=heartbeat,
                on_suspect=self._on_replica_suspect,
                on_restore=self._on_replica_restore,
                ping_payload=lambda _t: {
                    "commit_version": self.commit_version,
                    "epoch": self.epoch,
                },
                enabled=lambda: not self.halted,
            )

    # -- derived state ------------------------------------------------------
    @property
    def commit_version(self) -> int:
        """``V_commit`` — version of the latest certified transaction.

        Versions are allocated at commit (never reserved), so the sequence
        ``1..commit_version`` is contiguous for every shard count and
        replica watermarks remain meaningful against it.
        """
        return self.log.last_version

    def _derive_from_log(self) -> None:
        """Derive everything the log implies — certification index, request
        index and each shard's newest commit — from whatever log we hold (a
        promoted standby's is the tailed state-machine copy of the
        primary's), so a successor decides exactly as the primary did."""
        self._index = CertificationIndex.from_log(self.log)
        self._request_index = {
            entry.request_id: entry.commit_version
            for entry in self.log
            if entry.request_id
        }
        for entry in self.log:  # ascending, so the newest commit wins
            for p in self.partition_map.partitions_for(entry.writeset.tables):
                self.shards[p].last_global = entry.commit_version

    def _purge_departed(self) -> None:
        """Satellite fix for unbounded horizon pinning: a permanently
        departed replica's progress entry stops capping the replication
        horizon once ``departed_grace_ms`` has elapsed.  A purged replica
        that eventually returns is refused re-admission through the
        recovery path (its replay would need truncated history) and must
        rejoin as a fresh copy."""
        if self.departed_grace_ms is None or not self._departed_since:
            return
        now = self.env.now
        for replica in [
            r
            for r, since in self._departed_since.items()
            if now - since >= self.departed_grace_ms
        ]:
            self._departed_versions.pop(replica, None)
            self._departed_since.pop(replica, None)
            self.departed_purged += 1

    def replication_horizon(self) -> int:
        """Version every replica — including departed ones that may still
        recover — has applied (the safe log-truncation horizon).

        Departed replicas pin the horizon only for ``departed_grace_ms``
        (forever when unset)."""
        self._purge_departed()
        versions = list(self.applied_versions.values())
        versions.extend(self._departed_versions.values())
        if not versions:
            return self.commit_version
        return min(versions)

    def first_replayable_version(self) -> int:
        """The oldest version a recovery or catch-up replay can still start
        from: replays after ``after_version >= first_replayable - 1`` are
        servable, anything older needs a checkpoint (state transfer).
        1 while nothing has been truncated."""
        return self.log.truncation_version + 1

    def truncate_log(self) -> int:
        """Drop log entries below the replication horizon.

        Safe by construction: no live or departed replica can need a replay
        below its own applied version (replica watermarks are global, so a
        version at or below the horizon is applied everywhere regardless of
        its partition).  The certification index garbage-collects in
        lockstep: the versions leaving the log leave the per-key writer
        lists too, and a snapshot older than the truncation point aborts
        conservatively (:meth:`_find_conflict`).  Returns entries dropped.
        """
        horizon = self.replication_horizon()
        if self.digest_tracker is not None:
            # The oracle's change-point history tracks the log: expectations
            # below the horizon are never asked for again.
            self.digest_tracker.truncate(horizon)
        self._index.truncate_to(
            horizon, takewhile(lambda e: e.commit_version <= horizon, self.log)
        )
        return self.log.truncate_to(horizon)

    def stats(self) -> dict:
        """This certifier's ``certifier.*`` metrics subtree, per-shard
        counters included (names cataloged in docs/OBSERVABILITY.md)."""
        return {
            "name": self.name,
            "epoch": self.epoch,
            "certified": self.certified_count,
            "conflicts": self.abort_count,
            "row_comparisons": self.row_comparisons,
            "commit_version": self.commit_version,
            "replication_horizon": self.replication_horizon(),
            "backpressure_rejects": self.backpressure_rejects,
            "queue_length": len(self.mailbox),
            "num_partitions": len(self.shards),
            "single_partition_commits": self.single_partition_commits,
            "cross_partition_commits": self.cross_partition_commits,
            "cross_shard_stalls": self.cross_shard_stalls,
            "departed_purged": self.departed_purged,
            "stale_recovery_refusals": self.stale_recovery_refusals,
            "catch_up_replays": self.catch_up_replays,
            "first_replayable": self.first_replayable_version(),
            # Decision-log durability counters (see ``DecisionLog.load``).
            "durability": {
                "torn_tail_dropped": self.log.torn_tail_dropped,
                "framed_lines_loaded": self.log.framed_lines_loaded,
            },
            "shard": {
                p: {
                    "certified": shard.certified_count,
                    "conflicts": shard.abort_count,
                    "queue_length": shard.queue_length,
                    "last_global": shard.last_global,
                }
                for p, shard in self.shards.items()
            },
        }

    def decision_for(self, request_id: int) -> Optional[int]:
        """The commit version logged for ``request_id`` (None = no commit).

        The no-lost-acknowledged-commit audit keys on this: every commit the
        client was acknowledged for must resolve here.
        """
        return self._request_index.get(request_id)

    # -- state transfer (failover) ------------------------------------------
    def snapshot_state(self) -> dict:
        """The certifier's soft state, for standby initialisation.

        The decision log travels separately (clone or record tailing); the
        snapshot covers membership and replica progress, the state the old
        failover path reached into private attributes for.
        """
        return {
            "replicas": list(self.replica_names),
            "applied": dict(self.applied_versions),
            "departed": dict(self._departed_versions),
            "departed_since": dict(self._departed_since),
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a peer's :meth:`snapshot_state` (standby promotion).

        Nothing derived from the log is ever shipped: the certification
        index, the request index and the shards' newest commits are rebuilt
        here from our own decision log (which, on a promotion, is the tailed
        state-machine copy of the primary's), so the successor's decisions
        match the primary's exactly.
        """
        self.replica_names = list(state["replicas"])
        self.applied_versions = dict(state["applied"])
        self._departed_versions = dict(state["departed"])
        self._departed_since = dict(state.get("departed_since", {}))
        self._derive_from_log()
        if self.monitor is not None:
            for replica in self.replica_names:
                self.monitor.add_target(replica)

    # -- message dispatch ----------------------------------------------------
    def halt(self) -> None:
        """Crash-stop the certifier: no further decisions.

        Critical for failover correctness — without it, a certification in
        flight on the old primary could assign the same commit version the
        standby later hands to a different transaction, splitting the total
        order (found by the chaos test)."""
        self.halted = True

    def _handle(self, message):
        if self.halted:
            return None
        if isinstance(message, CertifyRequest):
            if not self._concurrent:
                # The serial server: the endpoint is busy until the decision
                # is made, so every later message waits its turn behind it.
                return self._certify(message)
            # Shards certify concurrently: each request runs as its
            # own process queueing on only the shards it touches.
            self.env.process(
                self._certify(message),
                name=f"{self.name}-certify-r{message.request_id}",
            )
        elif isinstance(message, CommitApplied):
            self._handle_commit_applied(message)
        elif isinstance(message, RecoveryRequest):
            self._handle_recovery(message)
        elif isinstance(message, CatchUpRequest):
            self._handle_catch_up(message)
        elif isinstance(message, FateQuery):
            self._handle_fate(message)
        elif isinstance(message, HeartbeatPing):
            self._handle_ping(message)
        elif isinstance(message, HeartbeatAck):
            if self.monitor is not None:
                self.monitor.observe_ack(message)
        elif isinstance(message, DecisionAck):
            waiter = self._record_waiters.get(message.commit_version)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(message)
        elif isinstance(message, StandbyPromoted):
            # A newer certifier exists: fence ourselves (split-brain
            # protection for the reachable case).
            if message.epoch > self.epoch:
                self.halt()
        else:
            raise TypeError(f"{self.name} got unexpected message {message!r}")
        return None

    def _handle_ping(self, ping: HeartbeatPing) -> None:
        # The standby's pings double as state sync: the ack carries a
        # snapshot so a promotion starts from near-current membership.
        payload = self.snapshot_state() if ping.sender == self.standby_name else None
        self.network.send(
            self.name, ping.sender, HeartbeatAck(self.name, ping.seq, payload)
        )

    def _replayed_decision(self, request: CertifyRequest) -> bool:
        """Re-send the decision for an already-decided request, if any.

        At-least-once delivery can hand the certifier the same
        CertifyRequest twice (the network's ``duplicate_prob``).
        Re-certifying the second copy would conflict with the first copy's
        own commit and abort a transaction the origin may already treat as
        committed — so a decided request_id is answered by replaying the
        original decision, never by deciding again.

        A replayed commit omits ``prev_versions`` at every shard count; the
        origin then waits for the full prefix — stricter, still safe.
        """
        version = self._request_index.get(request.request_id)
        if version is None and request.request_id not in self._aborted_requests:
            return False
        self.duplicate_certify_requests += 1
        self._reply(request, version)
        return True

    def _certify(self, request: CertifyRequest):
        """Decide one request — the one commit pipeline, at every shard count.

        The request holds the service slot of every partition it touches —
        the tables it wrote plus, in serializable mode, the tables it read —
        across the conflict check *and* the commit, so no commit can slip
        into an already-checked partition; that is what preserves
        first-committer-wins.  Slots are taken in ascending partition order
        (a total order on acquisition — no deadlocks).  A single-partition
        transaction queues on one slot with zero cross-shard coordination;
        with one shard that slot serialises every decision, which is what
        makes the total order total.
        """
        if self._replayed_decision(request):
            return
        written = self.partition_map.partitions_for(op.table for op in request.writeset)
        involved = written
        if request.readset:
            read = self.partition_map.partitions_for(t for t, _key in request.readset)
            involved = tuple(sorted({*written, *read}))
        if self.inbound_queue_bound is not None and (
            len(self.mailbox)
            + max((self.shards[p].queue_length for p in involved), default=0)
            >= self.inbound_queue_bound
        ):
            # Backpressure: the queue this request would wait behind — the
            # mailbox plus the longest queue on a slot it needs — exceeds
            # the bound.  Refuse *before* spending certification time — no
            # decision is made and nothing is logged, so the abort is
            # trivially safe.
            self.backpressure_rejects += 1
            self._reply(request, overloaded=True)
            return
        cross = len(involved) > 1
        traced = TRACER.enabled and TRACER.is_sampled(request.request_id)
        grants: list = []
        try:
            for p in involved:
                grant = self.shards[p].service.request()
                if cross and not grant.triggered:
                    self.cross_shard_stalls += 1
                acquire_start = self.env.now
                yield grant
                grants.append((p, grant))
                if traced and self._concurrent:
                    # Only concurrent dispatch can make a request wait here.
                    TRACER.record(
                        f"certifier.shard.{p}.acquire", self.name,
                        acquire_start, self.env.now,
                        request_id=request.request_id, txn_id=request.txn_id,
                        attrs={"cross_partition": cross},
                    )
            trace_start = self.env.now
            # Certification + durable logging consume the certifier's CPU.
            # The service time is drawn only once every slot is held:
            # drawing earlier (or folding the hold into the last slot
            # request) reorders the RNG draws of concurrent requests.
            yield self.env.timeout(self.perf.certify(len(request.writeset)))
            # Crashed mid-certification: the decision was never made.  Or a
            # duplicate that raced the original here serialised behind it on
            # the shared shard slots: the decision now exists, replay it.
            if self.halted or self._replayed_decision(request):
                return
            conflict = version = None
            if request.request_id in self._fenced:
                # The balancer already resolved this request's fate as
                # aborted; committing now would double an answer the client
                # acted on.
                outcome = "fenced-abort"
                self.fenced_aborts += 1
                self._abort(request)
            else:
                conflict = self._find_conflict(request)
                if conflict is None:
                    outcome = "commit"
                    version = self._commit(request, written, cross)
                else:
                    outcome = "conflict"
                    for p in involved:
                        self.shards[p].abort_count += 1
                    self._abort(request, conflict_with=conflict)
            if traced:
                attrs = {"outcome": outcome, "cross_partition": cross}
                if conflict is not None:
                    attrs["conflict_with"] = conflict
                TRACER.record(
                    "certifier.certify", self.name, trace_start, self.env.now,
                    request_id=request.request_id, txn_id=request.txn_id,
                    commit_version=version, attrs=attrs,
                )
        finally:
            for p, grant in reversed(grants):
                self.shards[p].service.release(grant)

    def _reply(self, request: CertifyRequest, version=None, **fields) -> None:
        """Answer outside the commit path: abort, shed, or a replayed commit."""
        self.network.send(
            self.name,
            request.origin,
            CertifyReply(
                txn_id=request.txn_id,
                request_id=request.request_id,
                certified=version is not None,
                commit_version=version,
                **fields,
            ),
        )

    def _abort(self, request: CertifyRequest, conflict_with=None) -> None:
        self.abort_count += 1
        self._aborted_requests.add(request.request_id)
        self._reply(request, conflict_with=conflict_with)

    def _find_conflict(self, request: CertifyRequest) -> Optional[int]:
        """Version of the first committed writeset in
        ``(snapshot, V_commit]`` that conflicts with the request.

        Always checks write-write conflicts (GSI first-committer-wins).
        When the request carries a readset (serializable certification
        mode), a committed write to any row the transaction *read* also
        conflicts — backward validation, which makes the global history
        one-copy serializable at the cost of extra aborts.

        Answered from the last-writer certification index in
        O(|writeset| + |readset|); the differential tests override this
        method with the specification, the window scan
        :func:`~.certindex.scan_first_conflict`, and require byte-identical
        decisions — same commit versions, same ``conflict_with`` causes.
        """
        low = request.snapshot_version
        if low < self.log.truncation_version:
            # The conflict window reaches into the truncated prefix: absence
            # of conflicts cannot be proven, so abort conservatively.  Only
            # transactions on extraordinarily stale snapshots hit this.
            return low + 1
        slots = request.writeset.slots
        if request.readset:
            slots = slots | request.readset
        before = self._index.probes
        conflict = self._index.first_conflict(slots, low)
        self.row_comparisons += self._index.probes - before
        return conflict

    def _commit(self, request: CertifyRequest, written: tuple, cross: bool) -> int:
        """Allocate the version, log and index the writeset, release."""
        version = self.log.last_version + 1
        # Per-partition predecessor vector, captured before the shards
        # advance: the proxies' apply/sync horizons wait on exactly these.
        prevs = None
        if self._vectors:
            prevs = tuple((p, self.shards[p].last_global) for p in written)
        entry = LogEntry(
            version, request.txn_id, request.origin, request.writeset,
            request_id=request.request_id, prevs=prevs or (),
        )
        self.log.append(entry)
        self._index.record(version, request.writeset)
        for p in written:
            shard = self.shards[p]
            shard.last_global = version
            shard.certified_count += 1
        if TRACER.enabled and TRACER.is_sampled(request.request_id):
            TRACER.link_version(version, request.txn_id, request.request_id)
            TRACER.instant(
                "certifier.log_append", self.name, self.env.now,
                commit_version=version,
                attrs={"shards": list(written)},
            )
        if self.digest_tracker is not None:
            self.digest_tracker.apply(request.writeset, version)
        self.certified_count += 1
        if cross:
            self.cross_partition_commits += 1
        else:
            self.single_partition_commits += 1
        self._request_index[request.request_id] = version
        if self.policy.tracks_global_commit:
            self._applied_by[version] = set()
            self._awaiting_global[version] = (request.origin, request.request_id)

        reply = CertifyReply(
            txn_id=request.txn_id,
            request_id=request.request_id,
            certified=True,
            commit_version=version,
            prev_versions=prevs,
        )
        if self.standby_name is not None:
            # Semi-synchronous shipping: release only once the standby holds
            # the record (or the ack timeout degrades us to asynchronous).
            self._unreleased.add(version)
            waiter = Event(self.env)
            self._record_waiters[version] = waiter
            self.network.send(self.name, self.standby_name, DecisionRecord(entry))
            self.env.process(
                self._release_after_standby(waiter, request, reply),
                name=f"{self.name}-release-v{version}",
            )
        else:
            self._release_decision(request, reply)
        return version

    def _release_after_standby(self, waiter, request, reply):
        timer = self.env.timeout(STANDBY_ACK_TIMEOUT_MS)
        yield self.env.any_of([waiter, timer])
        self._record_waiters.pop(reply.commit_version, None)
        if not waiter.triggered:
            self.standby_sync_timeouts += 1
        self._release_decision(request, reply)

    def _release_decision(self, request: CertifyRequest, reply: CertifyReply) -> None:
        """Send the decision to the origin and fan the refresh out."""
        version = reply.commit_version
        self._unreleased.discard(version)
        if self.halted:
            return
        if TRACER.enabled and TRACER.version_sampled(version):
            TRACER.instant(
                "certifier.release", self.name, self.env.now,
                commit_version=version,
                attrs={"fanout": max(0, len(self.replica_names) - 1)},
            )
        self.network.send(self.name, request.origin, reply)
        # One immutable message for every destination, like the WriteSet in
        # it: the simulated network hands the same object to each recipient.
        refresh = RefreshWriteset(
            version, request.writeset, request.origin,
            request.txn_id, prev_versions=reply.prev_versions,
        )
        for replica in self.replica_names:
            if replica != request.origin:
                self.network.send(self.name, replica, refresh)

    def _handle_fate(self, query: FateQuery) -> None:
        """Resolve the fate of a timed-out update (deadline path).

        Three outcomes: the decision log holds a commit → report it (the
        acknowledgment is never lost); the request was aborted → final
        abort; no decision → fence the request id and report abort (a late
        certification can no longer commit it, so the abort is final too).
        A decided-but-unreleased version (standby ack outstanding) defers
        the answer — the balancer's retry asks again after release.
        """
        self.fate_queries += 1
        version = self._request_index.get(query.request_id)
        if version is not None:
            if version in self._unreleased:
                return  # not replicated to the standby yet; answer the retry
            reply = FateReply(query.request_id, committed=True, commit_version=version)
        else:
            if query.request_id not in self._aborted_requests:
                self._fenced.add(query.request_id)
            reply = FateReply(query.request_id, committed=False)
        self.network.send(self.name, query.reply_to, reply)

    def _handle_commit_applied(self, message: CommitApplied) -> None:
        if message.replica in self.applied_versions:
            current = self.applied_versions[message.replica]
            if message.commit_version > current:
                self.applied_versions[message.replica] = message.commit_version
        if self.policy.tracks_global_commit:
            self._credit(message.replica, message.commit_version)

    def _credit(self, replica: str, watermark: int) -> None:
        """EAGER counting: credit ``replica`` with every awaited version at
        or below ``watermark``, notifying the origins of those now applied
        everywhere.

        Replicas apply — and report — in version order, so a report of w
        vouches for every version <= w; crediting that whole prefix is what
        lets a later report heal a lost one.
        """
        # Awaited versions are inserted at commit, so the dict is ascending:
        # the credited prefix ends at the first version above the watermark.
        for version in list(takewhile(watermark.__ge__, self._applied_by)):
            applied = self._applied_by[version]
            applied.add(replica)
            if len(applied) >= len(self.replica_names):
                origin, request_id = self._awaiting_global.pop(version)
                del self._applied_by[version]
                self.network.send(
                    self.name, origin, GlobalCommitNotice(version, request_id)
                )

    def _replay_after(self, replica: str, after: int) -> RecoveryReply:
        """The answer to a replay request: every decision above ``after``
        (with predecessor vectors, when commits carry them) — or, the log
        being truncated past ``after``, the refusal.  That is no dead end:
        it carries the machine-readable reason and the first still-replayable
        version, so the replica (via the bootstrap coordinator, when one
        runs) can rejoin through a checkpoint instead of being stranded.
        """
        try:
            replay = self.log.entries_after(after)
        except KeyError:
            return RecoveryReply(
                replica,
                (),
                bootstrap_required=True,
                first_replayable=self.first_replayable_version(),
            )
        return RecoveryReply(
            replica,
            tuple((entry.commit_version, entry.writeset) for entry in replay),
            prevs=tuple(entry.prevs for entry in replay) if self._vectors else None,
        )

    def _handle_recovery(self, message: RecoveryRequest) -> None:
        # Re-admission is part of recovery: the request itself tells the
        # certifier the replica is back and at which durable version, so no
        # oracle needs to call add_replica on the replica's behalf.  The
        # replay is computed *before* re-admitting: if the log was truncated
        # past the replica's version (possible once ``departed_grace_ms``
        # released its horizon pin), the replica cannot be caught up and is
        # refused rather than re-admitted with a hole in its history.
        reply = self._replay_after(message.replica, message.after_version)
        if reply.bootstrap_required:
            self.stale_recovery_refusals += 1
        else:
            self.add_replica(message.replica, applied_version=message.after_version)
        self.network.send(self.name, message.replica, reply)

    def _handle_catch_up(self, message: CatchUpRequest) -> None:
        """Serve a replay to a bootstrapping replica *without* re-admitting
        it.

        The joiner is deliberately kept out of ``replica_names`` and
        ``applied_versions`` while it catches up: a replica behind the pack
        must never pin the replication horizon (or stall EAGER's
        global-commit counting).  The coordinator re-admits it atomically —
        via a normal :class:`RecoveryRequest` — only once it is within the
        configured lag bound.
        """
        reply = self._replay_after(message.replica, message.after_version)
        if not reply.bootstrap_required:
            self.catch_up_replays += 1
        self.network.send(self.name, message.replica, reply)

    # -- membership (fault tolerance) ---------------------------------------
    def _on_replica_suspect(self, replica: str) -> None:
        self.remove_replica(replica)

    def _on_replica_restore(self, replica: str, ack: HeartbeatAck) -> None:
        applied = 0
        if isinstance(ack.payload, dict):
            applied = int(ack.payload.get("version", 0))
        if applied < self.first_replayable_version() - 1:
            # The log was truncated past this replica's version (its grace
            # period expired while it was away): re-admitting it would leave
            # a hole in its history no replay can fill.  It must come back
            # through the bootstrap path; its own gap-repair request gets
            # the machine-readable refusal that drives that.
            self.stale_recovery_refusals += 1
            return
        self.add_replica(replica, applied_version=applied)

    def remove_replica(self, replica: str) -> None:
        """Exclude a crashed replica from propagation and EAGER counting.

        Without this, EAGER would block forever waiting for a dead replica —
        exactly the availability weakness of the eager approach; the faults
        package exposes both behaviours.
        """
        if replica in self.replica_names:
            self.replica_names.remove(replica)
        departed_at = self.applied_versions.pop(replica, None)
        if departed_at is not None:
            self._departed_versions[replica] = departed_at
            self._departed_since[replica] = self.env.now
        if self.policy.tracks_global_commit:
            for version in list(self._awaiting_global):
                applied = self._applied_by.get(version, set())
                applied.discard(replica)
                if len(applied) >= len(self.replica_names):
                    origin, request_id = self._awaiting_global.pop(version)
                    self._applied_by.pop(version, None)
                    if origin in self.replica_names:
                        self.network.send(
                            self.name, origin, GlobalCommitNotice(version, request_id)
                        )

    def add_replica(self, replica: str, applied_version: int = 0) -> None:
        """(Re-)admit a replica after recovery (or bootstrap finalisation)."""
        if replica not in self.replica_names:
            self.replica_names.append(replica)
        self.applied_versions[replica] = applied_version
        self._departed_versions.pop(replica, None)
        self._departed_since.pop(replica, None)
        if self.monitor is not None:
            self.monitor.add_target(replica)
        if self.policy.tracks_global_commit:
            # Credit the (re)joining replica for every awaited version at or
            # below its applied version: versions absorbed by a checkpoint
            # (or applied before a crash) are never reported individually,
            # and without the credit EAGER's global-commit bar — raised by
            # the join — could wedge clients forever.
            self._credit(replica, applied_version)
