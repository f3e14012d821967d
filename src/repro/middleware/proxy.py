"""The replica proxy (Section IV of the paper).

Each replica hosts a standalone snapshot-isolation DBMS (our storage engine)
fronted by a proxy.  The proxy:

* intercepts client transactions routed by the load balancer and drives
  each through the explicit :class:`~repro.middleware.lifecycle.TxnLifecycle`
  stage pipeline (version → queries → certify → sync → commit → global);
* applies **refresh writesets** from remote transactions in the
  certifier's order — each once its predecessors are applied —
  interleaved with local commits;
* performs **early certification** to prevent the hidden-deadlock problem:
  client update statements are checked against pending refresh writesets,
  and arriving refresh writesets abort conflicting active local
  transactions;
* defers every protocol decision that depends on the consistency scheme —
  whether commit acknowledgments pay a synchronous log flush, whether the
  client waits for the global commit — to the configured
  :class:`~repro.core.policy.ConsistencyPolicy`.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heappop, heappush
from typing import Any, Optional

from ..core.policy import resolve_policy
from ..metrics.tracing import TRACER
from ..sim.kernel import Environment, Event
from ..sim.network import Mailbox, Network
from ..sim.resources import Resource
from ..storage.engine import StorageEngine
from ..storage.transaction import Transaction
from .clock import VersionClock
from .heartbeat import HeartbeatMonitor, HeartbeatSettings
from .lifecycle import CertifierUnavailable, ReplicaCrashed, TxnLifecycle
from .messages import (
    BootstrapRequired,
    CertifierSuspected,
    CertifyReply,
    CheckpointInstall,
    CheckpointInstalled,
    CommitApplied,
    DigestReply,
    DigestRequest,
    GlobalCommitNotice,
    HeartbeatAck,
    HeartbeatPing,
    RecoveryReply,
    RecoveryRequest,
    RefreshWriteset,
    RepairAck,
    RepairApply,
    RoutedRequest,
    StandbyPromoted,
    TableSyncReply,
    TableSyncRequest,
    TxnResponse,
)
from .perfmodel import ReplicaPerformance

__all__ = ["ReplicaProxy", "ReplicaCrashed", "CertifierUnavailable"]

#: the shortest interval between two gap-repair requests of one replica
GAP_REPAIR_COOLDOWN_MS = 100.0


class ReplicaProxy:
    """Proxy + local DBMS + CPU model: one replica of the system."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        name: str,
        engine: StorageEngine,
        perf: ReplicaPerformance,
        level,
        templates: dict,
        certifier_name: str = "certifier",
        balancer_name: str = "lb",
        early_certification: bool = True,
        certify_reads: bool = False,
        heartbeat: Optional[HeartbeatSettings] = None,
        standby_name: Optional[str] = None,
        certify_timeout_ms: Optional[float] = None,
    ):
        self.env = env
        self.network = network
        self.name = name
        self.engine = engine
        self.perf = perf
        self.policy = resolve_policy(level)
        self.templates = templates
        self.certifier_name = certifier_name
        self.balancer_name = balancer_name
        # Section IV's hidden-deadlock prevention, plus the statement-side
        # check against newer committed heads; the ablation bench turns both
        # off to show conflicts then travelling to the certifier.
        self.early_certification = early_certification
        # Serializable certification mode: ship the readset for backward
        # validation at the certifier.
        self.certify_reads = certify_reads

        #: per-partition apply horizons: clock ``p`` tracks the newest
        #: global version applied here whose predecessor vector names
        #: partition ``p``; a sync stage holding a vector waits on these
        #: instead of the full prefix.  Created on first use — a replica
        #: that never sees a vector (one certifier shard) never makes one —
        #: and soft state: after a crash the database is the ground truth.
        self.partition_clocks: dict[int, VersionClock] = defaultdict(lambda: VersionClock(env))

        self.mailbox: Mailbox = network.register(name, self._handle)
        self.cpu = Resource(env, capacity=perf.params.cores)
        # The replica's log-flush device: policies with a synchronous commit
        # acknowledgment (EAGER) serialize here; the lazy configurations
        # never touch it.
        self.flush_device = Resource(env, capacity=1)
        self.clock = VersionClock(env, initial=engine.version)
        self.crashed = False

        # Refresh writesets received but not applied yet, by version, plus a
        # min-heap over the pending versions so stale entries (at or below
        # V_local after a recovery replay) are purged from the front in
        # O(log n) instead of rescanning the dict on every message.
        self._pending_refresh: dict[int, Any] = {}
        self._pending_versions: list[int] = []
        # Predecessor vectors of the pending refreshes that carry one; a
        # refresh without a vector waits for the full prefix.
        self._pending_prevs: dict[int, tuple] = {}
        # Versions reserved for local certified transactions.
        self._reserved: set[int] = set()
        # Active local transactions still executing (pre-certification),
        # eligible for arrival-side early-certification aborts.
        self._executing: dict[int, Transaction] = {}
        # txn_id -> abort reason set by arrival-side early certification.
        self._doomed: dict[int, str] = {}
        # request_id -> Event for certifier replies / global-commit notices.
        self._certify_waiters: dict[int, Event] = {}
        self._global_waiters: dict[int, Event] = {}
        self._applier_wakeup: Optional[Event] = None

        # Counters for tests and reports.
        self.executed_count = 0
        self.committed_count = 0
        self.aborted_count = 0
        self.refresh_applied_count = 0
        self.early_abort_count = 0
        self.abandoned_count = 0
        self.gap_repairs = 0
        self.duplicate_refreshes_ignored = 0
        self.duplicate_requests_ignored = 0
        #: ids of the requests routed here, kept only when the network can
        #: deliver a message twice: otherwise the balancer routes each id
        #: once (a retry gets a fresh one) and nothing can repeat it
        self._routed_seen: Optional[set[int]] = (
            set() if network.duplicate_prob > 0 else None
        )
        # Anti-entropy bookkeeping (see middleware/scrubber.py).
        self.digest_replies = 0
        self.table_syncs_served = 0
        self.repairs_applied = 0
        # Replica lifecycle (see middleware/bootstrap.py).  ``bootstrapping``
        # is set by the coordinator while this replica is joining or catching
        # up: gap repair is suppressed then, so the certifier never re-admits
        # a replica that must not pin the replication horizon yet.
        self.bootstrap_name: Optional[str] = None
        self.bootstrapping = False
        self.checkpoints_installed = 0
        self.bootstrap_required_refusals = 0
        self.last_bootstrap_first_replayable = 0

        # Self-healing (all opt-in, see docs/PROTOCOL.md): a bound on the
        # certify/global waits, and — when a standby exists — a heartbeat
        # monitor over the certifier whose suspicions become promotion votes.
        self.certify_timeout_ms = certify_timeout_ms
        self.standby_name = standby_name
        self.certifier_epoch = 1
        self._last_gap_repair = float("-inf")
        self.monitor: Optional[HeartbeatMonitor] = None
        if heartbeat is not None and standby_name is not None:
            self.monitor = HeartbeatMonitor(
                env,
                network,
                owner=name,
                targets=[certifier_name],
                settings=heartbeat,
                on_suspect=self._on_certifier_suspect,
                on_restore=self._on_certifier_restore,
                enabled=lambda: not self.crashed,
            )

        self._applier = env.process(self._apply_refreshes(), name=f"{name}-applier")

    # -- convenience --------------------------------------------------------
    @property
    def v_local(self) -> int:
        """The replica's committed database version."""
        return self.engine.version

    @property
    def pending_refresh_count(self) -> int:
        """Refresh writesets received but not yet applied."""
        return len(self._pending_refresh)

    @property
    def applier_alive(self) -> bool:
        """Whether the refresh-applier process is still running."""
        return self._applier.is_alive

    # -- message dispatch ------------------------------------------------------
    def _handle(self, message) -> None:
        if self.crashed:
            return
        if isinstance(message, RefreshWriteset):  # the per-version message first
            self._receive_refresh(message)
        elif isinstance(message, RoutedRequest):
            rid = message.request.request_id
            seen = self._routed_seen
            if seen is not None:
                if rid in seen:
                    # A repeat can only be the network redelivering a
                    # message — executing it again would run the
                    # transaction twice and wedge the certify waiter
                    # keyed by this id.
                    self.duplicate_requests_ignored += 1
                    return
                seen.add(rid)
            self.env.process(
                self._execute(message), name=f"{self.name}-txn-{rid}"
            )
        elif isinstance(message, CertifyReply):
            waiter = self._certify_waiters.pop(message.request_id, None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(message)
        elif isinstance(message, GlobalCommitNotice):
            waiter = self._global_waiters.pop(message.request_id, None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(message)
        elif isinstance(message, RecoveryReply):
            self._receive_recovery(message)
        elif isinstance(message, HeartbeatPing):
            self._handle_ping(message)
        elif isinstance(message, HeartbeatAck):
            if self.monitor is not None:
                self.monitor.observe_ack(message)
        elif isinstance(message, StandbyPromoted):
            self._handle_promotion(message)
        elif isinstance(message, DigestRequest):
            self._handle_digest_request(message)
        elif isinstance(message, TableSyncRequest):
            self._handle_table_sync(message)
        elif isinstance(message, RepairApply):
            self._handle_repair_apply(message)
        elif isinstance(message, CheckpointInstall):
            self._handle_checkpoint_install(message)
        else:
            raise TypeError(f"{self.name} got unexpected message {message!r}")

    # -- failure detection -----------------------------------------------------
    def _handle_ping(self, ping: HeartbeatPing) -> None:
        """Answer a liveness probe; the ack reports our durable version so
        the certifier can re-admit us at it after a suspicion."""
        self.network.send(
            self.name,
            ping.sender,
            HeartbeatAck(self.name, ping.seq, {"version": self.engine.version}),
        )
        if isinstance(ping.payload, dict):
            # A ping from a newer-epoch certifier doubles as the promotion
            # notice: the one-shot StandbyPromoted is lost if we were crashed
            # or partitioned at promotion time, and without re-pointing every
            # gap-repair request would go to the dead primary forever.
            epoch = ping.payload.get("epoch")
            if epoch is not None and epoch > self.certifier_epoch:
                self._handle_promotion(StandbyPromoted(ping.sender, epoch))
            commit_version = ping.payload.get("commit_version")
            if commit_version is not None:
                self._maybe_repair_gap(commit_version)

    def _maybe_repair_gap(self, commit_version: int) -> None:
        """Detect a refresh gap from the certifier's piggybacked V_commit.

        A link partition (or a certify reply lost to a failover) can leave
        this replica missing version ``v_local + 1`` with nothing in flight
        to fill it — the applier would stall forever.  When the certifier is
        ahead and we hold neither a pending refresh nor a reservation for
        the next version, ask for a recovery replay.  The cooldown absorbs
        the benign case where the refresh is merely still on the wire.
        """
        if self.bootstrapping:
            # The bootstrap coordinator owns our catch-up; a gap-repair
            # RecoveryRequest would make the certifier re-admit us into the
            # membership set (and the horizon) while we are still behind.
            return
        next_version = self.engine.version + 1
        if commit_version <= self.engine.version:
            return
        if next_version in self._pending_refresh or next_version in self._reserved:
            return
        if self.env.now - self._last_gap_repair < GAP_REPAIR_COOLDOWN_MS:
            return
        self._last_gap_repair = self.env.now
        self.gap_repairs += 1
        self.network.send(
            self.name,
            self.certifier_name,
            RecoveryRequest(self.name, self.engine.version),
        )

    def _on_certifier_suspect(self, certifier: str) -> None:
        """Vote for promotion: our heartbeats to the certifier time out."""
        self.network.send(
            self.name, self.standby_name, CertifierSuspected(self.name, certifier)
        )

    def _on_certifier_restore(self, certifier: str, _ack: HeartbeatAck) -> None:
        """The certifier answered again: retract the vote."""
        self.network.send(
            self.name,
            self.standby_name,
            CertifierSuspected(self.name, certifier, retract=True),
        )

    def _handle_promotion(self, notice: StandbyPromoted) -> None:
        """Re-point at the promoted certifier (stale epochs are ignored)."""
        if notice.epoch <= self.certifier_epoch:
            return
        old = self.certifier_name
        self.certifier_epoch = notice.epoch
        self.certifier_name = notice.certifier
        if self.monitor is not None:
            self.monitor.replace_target(old, notice.certifier)
        # Certifications in flight at the dead primary can never be
        # answered; their outcome is inherently uncertain (the decision may
        # sit in the successor's log), so the abort reason says so.
        self.fail_pending_certifications(f"certifier failover to {notice.certifier}")

    # -- anti-entropy ----------------------------------------------------------
    def _handle_digest_request(self, request: DigestRequest) -> None:
        """Report the per-table digest vector at our current ``V_local``.

        A deep request rescans every visible row (the only way to see
        in-place corruption); a light one answers from the incremental
        bookkeeping.  While versions are installed ahead of the watermark
        the digests include their images, so the reply is flagged unaligned
        and the scrubber skips it.
        """
        db = self.engine.database
        digests = db.recompute_digests() if request.deep else db.digests()
        self.digest_replies += 1
        self.network.send(
            self.name,
            request.reply_to,
            DigestReply(
                replica=self.name,
                round_id=request.round_id,
                version=db.version,
                digests=digests,
                aligned=not db.has_applied_ahead,
            ),
        )

    def _handle_table_sync(self, request: TableSyncRequest) -> None:
        """Serve our latest row images of the requested tables so a diverged
        peer can be repaired from them."""
        db = self.engine.database
        rows = {
            table: tuple(db.table(table).latest_states())
            for table in request.tables
        }
        self.table_syncs_served += 1
        self.network.send(
            self.name,
            request.reply_to,
            TableSyncReply(
                replica=self.name,
                target=request.target,
                round_id=request.round_id,
                version=db.version,
                rows=rows,
            ),
        )

    def _handle_repair_apply(self, message: RepairApply) -> None:
        """Adopt a healthy peer's row images for the diverged tables.

        We serve no reads while quarantined, so replacing table state
        in place is safe; catch-up replay composes via the resync floor
        (ops at or below ``synced_version`` become no-ops for the synced
        tables), and rows we wrote beyond the peer's capture while the
        sync was in flight are kept untouched by :meth:`resync_table` —
        repair lands even under continuous load.  Re-admission still
        waits on a clean scrub verification.
        """
        db = self.engine.database
        repaired = 0
        for table, entries in message.rows.items():
            repaired += db.resync_table(table, entries, message.synced_version)
        self.repairs_applied += 1
        self._wake_applier()
        self.network.send(
            self.name,
            message.reply_to,
            RepairAck(
                replica=self.name,
                round_id=message.round_id,
                version=db.version,
                rows_repaired=repaired,
            ),
        )

    # -- replica lifecycle -----------------------------------------------------
    def _handle_checkpoint_install(self, message: CheckpointInstall) -> None:
        """Adopt a donor's fuzzy checkpoint (bootstrap state transfer).

        Every table's latest row images were captured atomically at the
        donor's ``checkpoint_version``; installing them and jumping the apply
        watermark there makes this copy equivalent to one that applied
        versions 1..checkpoint individually.  We serve no client traffic
        while joining, so the in-place swap is safe; the catch-up replay
        above the checkpoint composes via the resync floor.
        """
        db = self.engine.database
        for table, entries in message.rows.items():
            db.resync_table(table, entries, message.checkpoint_version)
        db.adopt_checkpoint(message.checkpoint_version)
        self.checkpoints_installed += 1
        self._purge_stale_refreshes()
        self.clock.advance_to(self.engine.version)
        # The checkpoint covers every table, hence every partition.
        for clock in self.partition_clocks.values():
            clock.advance_to(self.engine.version)
        self._wake_applier()
        self.network.send(
            self.name,
            message.reply_to,
            CheckpointInstalled(
                replica=self.name,
                round_id=message.round_id,
                version=db.version,
            ),
        )

    def stats(self) -> dict:
        """This replica's ``replica.NAME.*`` metrics subtree (names
        cataloged in docs/OBSERVABILITY.md)."""
        return {
            "v_local": self.v_local,
            "pending_refresh": self.pending_refresh_count,
            "cpu_busy_ms": self.cpu.busy_slot_ms,
            "executed": self.executed_count,
            "committed": self.committed_count,
            "aborted": self.aborted_count,
            "early_aborts": self.early_abort_count,
            "crashed": self.crashed,
            "refreshes_applied": self.refresh_applied_count,
            "gap_repairs": self.gap_repairs,
            "checkpoints_installed": self.checkpoints_installed,
            "bootstrap_required_refusals": self.bootstrap_required_refusals,
            "last_bootstrap_first_replayable": self.last_bootstrap_first_replayable,
            "bootstrapping": self.bootstrapping,
        }

    # -- refresh handling ------------------------------------------------------
    def _receive_refresh(self, message: RefreshWriteset) -> None:
        version = message.commit_version
        if self.engine.database.has_applied(version):
            self.duplicate_refreshes_ignored += 1
            return  # duplicate (recovery replay or a network-level re-send)
        writeset = message.writeset
        pending = self._pending_refresh
        if version in pending:  # a copy that raced ahead of the applier
            self.duplicate_refreshes_ignored += 1
        else:
            heappush(self._pending_versions, version)
        pending[version] = writeset
        if message.prev_versions:
            self._pending_prevs[version] = message.prev_versions
        # Arrival-side early certification: doom conflicting active locals.
        if self.early_certification and self._executing:
            slots = writeset.slots
            for txn in self._executing.values():
                if txn.writes_any(slots):
                    self._doomed[txn.txn_id] = (
                        f"early certification: refresh v{version} "
                        "conflicts with partial writeset"
                    )
        wakeup = self._applier_wakeup
        if wakeup is not None:
            self._applier_wakeup = None
            wakeup.succeed()

    def _receive_recovery(self, message: RecoveryReply) -> None:
        if message.bootstrap_required:
            # The decision log no longer reaches back to our version: an
            # incremental replay is impossible and we must re-bootstrap from
            # a checkpoint.  Surface the machine-readable refusal and hand
            # the replica to the bootstrap coordinator (when one exists).
            self.bootstrap_required_refusals += 1
            self.last_bootstrap_first_replayable = message.first_replayable
            if self.bootstrap_name is not None and not self.bootstrapping:
                self.network.send(
                    self.name,
                    self.bootstrap_name,
                    BootstrapRequired(self.name, message.first_replayable),
                )
            return
        # A second recovery can replay writesets the engine already applied;
        # drop anything at or below the current version first so a stale
        # entry cannot linger in the pending map (it would never match
        # ``engine.version + 1`` and would pin memory forever).
        self._purge_stale_refreshes()
        prevs_list = message.prevs or (None,) * len(message.entries)
        for (version, writeset), prevs in zip(message.entries, prevs_list):
            # Skip versions a local certified transaction has reserved: the
            # gap-repair path can request a replay whose window overlaps our
            # own pending commit, and applying it twice would fork V_local.
            if (
                not self.engine.database.has_applied(version)
                and version not in self._pending_refresh
                and version not in self._reserved
            ):
                heappush(self._pending_versions, version)
                self._pending_refresh[version] = writeset
                if prevs:
                    self._pending_prevs[version] = prevs
        self._wake_applier()

    def _purge_stale_refreshes(self) -> None:
        """Drop pending entries at or below ``V_local``.

        The heap tracks the minimum pending version, so the purge touches
        only the stale front (plus already-applied leftovers, which the
        lazy ``pop`` discards) — no dict rescan per message or loop turn.
        """
        heap = self._pending_versions
        current = self.engine.version
        while heap and heap[0] <= current:
            stale = heappop(heap)
            self._pending_refresh.pop(stale, None)
            self._pending_prevs.pop(stale, None)

    def _wake_applier(self) -> None:
        # The first wake takes the event: later ones before the applier runs are no-ops.
        wakeup = self._applier_wakeup
        if wakeup is not None:
            self._applier_wakeup = None
            wakeup.succeed()

    def _apply_refreshes(self):
        """The one refresh applier: install each refresh once its
        predecessors are applied, interleaved with local commits (which own
        their reserved versions).

        A refresh leaves the pending maps *before* its CPU hold, so
        statement-side early certification does not see it during the hold;
        a conflicting local write then travels to the certifier.
        """
        # One pass per turn, each step written out (DESIGN.md D24); a crash
        # clears these maps in place, never rebinds them.
        database = self.engine.database
        pending, pending_prevs = self._pending_refresh, self._pending_prevs
        heap, reserved = self._pending_versions, self._reserved
        while True:
            # ``_purge_stale_refreshes`` (the heap keeps installed versions).
            watermark = database.version
            while heap and heap[0] <= watermark:
                stale = heappop(heap)
                pending.pop(stale, None)
                pending_prevs.pop(stale, None)
            version = watermark + 1  # ready by construction when pending
            if self.crashed:
                version = None
            elif version not in pending or version in reserved:
                version = self._ready_pending_version() if pending_prevs else None
            if version is None:
                # Whatever can make a version ready also wakes us: arrivals,
                # local commits (releasing their reservation), repairs,
                # checkpoint installs, recovery.
                self._applier_wakeup = Event(self.env)
                yield self._applier_wakeup
                continue
            writeset = pending.pop(version)
            prevs = pending_prevs.pop(version, None)
            size = len(writeset)
            hold = self.cpu.request(self.perf.refresh(size))  # ``Resource.use``
            try:
                yield hold
            finally:
                self.cpu.release(hold)
            # Re-validate against what happened during the hold: a crash, a
            # recovery replay that applied the version, or a certify reply
            # that assigned it to a local transaction (whose commit owns it;
            # our copy on top would be a duplicate).
            if self.crashed or database.has_applied(version) or version in reserved:
                continue
            if TRACER.enabled and TRACER.version_sampled(version):
                # The one refresh-apply trace point: live refreshes and
                # recovery/catch-up replay all install here.
                TRACER.instant(
                    "refresh.apply", self.name, self.env.now,
                    commit_version=version, attrs={"ops": size},
                )
            after = None if prevs is None else tuple(prev for _p, prev in prevs)
            # Looked up on the instance: the fault injector shadows it there.
            self.engine.apply_refresh(writeset, version, after=after)
            self.refresh_applied_count += 1
            # A duplicate that arrived during the hold must not linger.
            pending.pop(version, None)
            pending_prevs.pop(version, None)
            self._publish_applied(version, prevs, size)

    def _ready_pending_version(self) -> Optional[int]:
        """Smallest pending, unreserved version whose predecessor vector is
        all applied: the applier's scan when ``V_local + 1`` is not ready
        (a refresh without a vector waits for the full prefix).  A reserved
        version belongs to its local commit even when a gap-repair replay
        also holds it as a refresh."""
        database = self.engine.database
        reserved = self._reserved
        best: Optional[int] = None
        for version, prevs in self._pending_prevs.items():
            if (
                (best is None or version < best)
                and version not in reserved
                and not database.has_applied(version)
                and all(database.has_applied(prev) for _p, prev in prevs)
            ):
                best = version
        return best

    def _publish_applied(self, version: int, prevs, writeset_size: int) -> None:
        """``version`` is installed (refresh or local commit): advance the
        apply horizons of the partitions its vector names, then the main
        clock, wake the applier and report progress to the certifier.

        The main clock and the report follow the contiguous watermark —
        which one install may leave alone or carry across a whole
        applied-ahead run — never the raw version: the watermark is the
        valid replay floor.

        Lazy policies report immediately — the replicas run with
        log-forcing off and the report is pure progress tracking.  A policy
        with a synchronous commit acknowledgment (EAGER) makes the report
        part of the commit round: it first serializes through the replica's
        log-flush device, and the certifier's global-commit counter (and
        hence the client acknowledgment) waits for it.
        """
        for p, _prev in prevs or ():
            self.partition_clocks[p].advance_to(version)
        watermark = self.engine.database.version
        self.clock.advance_to(watermark)
        if self._applier_wakeup is not None:  # None when the applier publishes
            self._wake_applier()
        flush = self.policy.commit_ack_flush(self.perf, writeset_size)
        if flush > 0:
            self.env.process(
                self._flush_and_ack(watermark, flush),
                name=f"{self.name}-flush-v{watermark}",
            )
            return
        self.network.send(
            self.name, self.certifier_name, CommitApplied(self.name, watermark)
        )

    def _flush_and_ack(self, commit_version: int, flush: float):
        yield from self.flush_device.use(flush)
        if not self.crashed:
            self.network.send(
                self.name, self.certifier_name, CommitApplied(self.name, commit_version)
            )

    # -- early certification -------------------------------------------------
    def early_certification_conflict(
        self, txn: Transaction, table: str, key: Any
    ) -> Optional[str]:
        """Statement-side check of the row a statement just buffered: is it
        written by a pending refresh writeset, or already overwritten past
        the snapshot?  Returns the abort reason or None.

        Probing this one row decides for the whole partial writeset: a
        template body runs at a single virtual instant, so no refresh can
        arrive and no head can move between two of its statements, and
        every row buffered earlier passed this same check (DESIGN.md D9).
        """
        if not self.early_certification:
            return None
        doomed = self._doomed.get(txn.txn_id)
        if doomed is not None:
            return doomed
        slot = (table, key)
        for version, refresh in self._pending_refresh.items():
            if slot in refresh:
                return (
                    f"early certification: conflict with pending refresh v{version}"
                )
        committed_at = self.engine.database.latest_write_version(table, key)
        if committed_at > txn.snapshot_version:
            return (
                f"early certification: {table}:{key} overwritten "
                f"at v{committed_at} (snapshot v{txn.snapshot_version})"
            )
        return None

    # -- transaction execution ---------------------------------------------------
    def _execute(self, routed: RoutedRequest):
        yield from TxnLifecycle(self, routed).run()

    # -- helpers -----------------------------------------------------------
    def _finish_abort(self, txn: Transaction, reason: str) -> None:
        self._executing.pop(txn.txn_id, None)
        self._doomed.pop(txn.txn_id, None)
        if txn.is_active:
            self.engine.abort(txn, reason)
        self.aborted_count += 1

    def _respond(
        self,
        request,
        stages,
        committed: bool,
        commit_version: Optional[int] = None,
        abort_reason: Optional[str] = None,
        updated_tables: frozenset = frozenset(),
        snapshot_version: int = 0,
        result: Any = None,
    ) -> None:
        if self.crashed:
            return
        self.network.send(
            self.name,
            self.balancer_name,
            TxnResponse(
                request_id=request.request_id,
                session_id=request.session_id,
                reply_to=request.reply_to,
                replica=self.name,
                committed=committed,
                commit_version=commit_version,
                abort_reason=abort_reason,
                replica_version=self.engine.version,
                updated_tables=frozenset(updated_tables),
                stages=stages,
                snapshot_version=snapshot_version,
                result=result,
            ),
        )

    def fail_pending_certifications(self, reason: str) -> None:
        """Fail every in-flight certification and global-commit wait (used
        when the certifier fails over)."""
        for waiter in list(self._certify_waiters.values()):
            if not waiter.triggered:
                waiter.fail(CertifierUnavailable(reason))
        self._certify_waiters.clear()
        for waiter in list(self._global_waiters.values()):
            if not waiter.triggered:
                waiter.fail(CertifierUnavailable(reason))
        self._global_waiters.clear()

    # -- fault injection -----------------------------------------------------
    def crash(self) -> None:
        """Crash the replica: lose soft state, abort active transactions.

        The network drops inbound messages while the endpoint is down; the
        durable state (the engine's committed data) survives, matching the
        crash-recovery failure model."""
        self.crashed = True
        self._pending_refresh.clear()
        self._pending_versions.clear()
        self._pending_prevs.clear()
        self._doomed.clear()
        for txn in list(self.engine.active_transactions):
            self.engine.abort(txn, "replica crashed")
        self._executing.clear()
        self._certify_waiters.clear()
        self._global_waiters.clear()
        self._reserved.clear()

    def recover(self) -> None:
        """Recover: rejoin the network and ask the certifier for the missed
        decisions (replayed through the normal refresh-application path)."""
        if not self.crashed:
            return
        self.crashed = False
        self.network.bring_up(self.name)
        self.network.send(
            self.name,
            self.certifier_name,
            RecoveryRequest(self.name, self.engine.version),
        )
        self._wake_applier()
