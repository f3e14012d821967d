"""The replica proxy (Section IV of the paper).

Each replica hosts a standalone snapshot-isolation DBMS (our storage engine)
fronted by a proxy.  The proxy:

* intercepts client transactions routed by the load balancer and drives
  each through the explicit :class:`~repro.middleware.lifecycle.TxnLifecycle`
  stage pipeline (version → queries → certify → sync → commit → global);
* applies **refresh writesets** from remote transactions strictly in the
  certifier's total order, interleaved with local commits;
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

from heapq import heappop, heappush
from typing import Any, Optional

from ..core.partition import PartitionMap
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
        precheck_committed: bool = True,
        early_certification: bool = True,
        certify_reads: bool = False,
        vacuum_interval_ms: Optional[float] = None,
        heartbeat: Optional[HeartbeatSettings] = None,
        standby_name: Optional[str] = None,
        certify_timeout_ms: Optional[float] = None,
        gap_repair_cooldown_ms: float = 100.0,
        batch_refresh_apply: bool = False,
        refresh_batch_limit: int = 32,
        partition_map: Optional[PartitionMap] = None,
    ):
        if refresh_batch_limit < 1:
            raise ValueError("refresh_batch_limit must be >= 1")
        self.env = env
        self.network = network
        self.name = name
        self.engine = engine
        self.perf = perf
        self.policy = resolve_policy(level)
        #: legacy introspection: the enum member behind the policy, if any
        self.level = self.policy.level
        self.templates = templates
        self.certifier_name = certifier_name
        self.balancer_name = balancer_name
        self.precheck_committed = precheck_committed
        # Section IV's hidden-deadlock prevention; the ablation bench turns
        # it off to show conflicts then travelling to the certifier.
        self.early_certification = early_certification
        # Serializable certification mode: ship the readset for backward
        # validation at the certifier.
        self.certify_reads = certify_reads

        #: table-group partitioning (None/trivial = legacy strict-order
        #: refresh application, trace-identical to the pre-partitioning code)
        self.partition_map = partition_map
        self.partitioned = (
            partition_map is not None and not partition_map.is_trivial
        )
        #: per-partition apply horizons: clock ``p`` tracks the newest
        #: global version applied here whose writeset touched partition
        #: ``p``; the sync stage waits on these instead of the full prefix
        self.partition_clocks: dict[int, VersionClock] = {}
        if self.partitioned:
            # Out-of-order applies: the database tracks a contiguous
            # watermark and installs independent partitions' commits as
            # their per-partition predecessors arrive.
            engine.database.allow_gaps = True
            self.partition_clocks = {
                p: VersionClock(env, initial=0)
                for p in range(partition_map.num_partitions)
            }

        self.mailbox: Mailbox = network.register(name)
        self.cpu = Resource(env, capacity=perf.params.cores)
        # The replica's log-flush device: policies with a synchronous commit
        # acknowledgment (EAGER) serialize here; the lazy configurations
        # never touch it.
        self.flush_device = Resource(env, capacity=1)
        self.clock = VersionClock(env, initial=engine.version)
        self.crashed = False

        # Group refresh: drain runs of consecutive pending versions into one
        # engine apply pass instead of one CPU round-trip per version.
        self.batch_refresh_apply = batch_refresh_apply
        self.refresh_batch_limit = refresh_batch_limit

        # Refresh writesets received but not applied yet, by version, plus a
        # min-heap over the pending versions so stale entries (at or below
        # V_local after a recovery replay) are purged from the front in
        # O(log n) instead of rescanning the dict on every message.
        self._pending_refresh: dict[int, Any] = {}
        self._pending_versions: list[int] = []
        # Per-partition predecessor vectors of pending refreshes (kept out
        # of ``_pending_refresh`` so its values stay plain writesets for
        # early certification and the legacy applier).
        self._pending_prevs: dict[int, Optional[tuple]] = {}
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
        self.refresh_batches = 0
        self.early_abort_count = 0
        self.abandoned_count = 0
        self.gap_repairs = 0
        self.duplicate_refreshes_ignored = 0
        self.duplicate_requests_ignored = 0
        self._routed_seen: set[int] = set()
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
        #: armed by FaultInjector.skip_refresh / double_apply_refresh — the
        #: next refresh apply is installed wrongly ("skip" or "double")
        self._corrupt_next_refresh: Optional[str] = None
        #: (time, mode, version) per corrupted apply, for audits
        self.corrupted_applies: list[tuple[float, str, int]] = []

        # Self-healing (all opt-in, see docs/PROTOCOL.md): a bound on the
        # certify/global waits, and — when a standby exists — a heartbeat
        # monitor over the certifier whose suspicions become promotion votes.
        self.certify_timeout_ms = certify_timeout_ms
        self.standby_name = standby_name
        self.gap_repair_cooldown_ms = gap_repair_cooldown_ms
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

        self._loop = env.process(self._run(), name=f"{name}-loop")
        self._applier = env.process(self._apply_refreshes(), name=f"{name}-applier")
        self.vacuumed_versions = 0
        if vacuum_interval_ms is not None:
            if vacuum_interval_ms <= 0:
                raise ValueError("vacuum_interval_ms must be positive")
            self._vacuum = env.process(
                self._vacuum_loop(vacuum_interval_ms), name=f"{name}-vacuum"
            )

    # -- convenience --------------------------------------------------------
    @property
    def v_local(self) -> int:
        """The replica's committed database version."""
        return self.engine.version

    @property
    def pending_refresh_count(self) -> int:
        """Refresh writesets received but not yet applied."""
        return len(self._pending_refresh)

    # -- message dispatch ------------------------------------------------------
    def _run(self):
        while True:
            message = yield self.mailbox.receive()
            if self.crashed:
                continue
            if isinstance(message, RoutedRequest):
                rid = message.request.request_id
                if rid in self._routed_seen:
                    # The balancer mints a fresh request_id for every
                    # (re)dispatch, so a repeat can only be the network
                    # redelivering the same message — executing it again
                    # would run the transaction twice and wedge the certify
                    # waiter keyed by this id.
                    self.duplicate_requests_ignored += 1
                    continue
                self._routed_seen.add(rid)
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
            elif isinstance(message, RefreshWriteset):
                self._receive_refresh(message)
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
        if self.env.now - self._last_gap_repair < self.gap_repair_cooldown_ms:
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
        bookkeeping.  While out-of-order partitioned applies are in flight
        the digests include images above the watermark, so the reply is
        flagged unaligned and the scrubber skips it.
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
        """Counter snapshot of this replica's proxy (lifecycle view)."""
        return {
            "v_local": self.engine.version,
            "committed": self.committed_count,
            "aborted": self.aborted_count,
            "refreshes_applied": self.refresh_applied_count,
            "gap_repairs": self.gap_repairs,
            "checkpoints_installed": self.checkpoints_installed,
            "bootstrap_required_refusals": self.bootstrap_required_refusals,
            "last_bootstrap_first_replayable": self.last_bootstrap_first_replayable,
            "bootstrapping": self.bootstrapping,
        }

    # -- refresh handling ------------------------------------------------------
    def _receive_refresh(self, message: RefreshWriteset) -> None:
        if self.engine.database.has_applied(message.commit_version):
            self.duplicate_refreshes_ignored += 1
            return  # duplicate (recovery replay or a network-level re-send)
        self._enqueue_refresh(
            message.commit_version, message.writeset, message.prev_versions
        )
        # Arrival-side early certification: doom conflicting active locals.
        if self.early_certification:
            for txn in list(self._executing.values()):
                if txn.is_read_only:
                    continue
                if message.writeset.conflicts_with(txn.partial_writeset()):
                    self._doomed[txn.txn_id] = (
                        f"early certification: refresh v{message.commit_version} "
                        "conflicts with partial writeset"
                    )
        self._wake_applier()

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
                self._enqueue_refresh(version, writeset, prevs)
        self._wake_applier()

    def _enqueue_refresh(self, version: int, writeset, prevs=None) -> None:
        if version not in self._pending_refresh:
            heappush(self._pending_versions, version)
        else:
            # Already buffered: a duplicate delivery that raced ahead of the
            # apply loop (the post-apply duplicates are caught by
            # ``has_applied`` in ``_receive_refresh``).
            self.duplicate_refreshes_ignored += 1
        self._pending_refresh[version] = writeset
        if prevs is not None:
            self._pending_prevs[version] = prevs

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
        if self._applier_wakeup is not None and not self._applier_wakeup.triggered:
            self._applier_wakeup.succeed()

    def _apply_refreshes(self):
        """Apply refresh writesets strictly in the global commit order,
        interleaving with local commits (which own their reserved versions)."""
        while True:
            if self.crashed:
                self._applier_wakeup = Event(self.env)
                yield self._applier_wakeup
                self._applier_wakeup = None
                continue
            next_version = self.engine.version + 1
            # A recovery replay can leave entries at or below V_local behind
            # a local commit; drop them so they cannot pin memory.
            self._purge_stale_refreshes()
            if self.partitioned:
                yield from self._apply_ready_partitioned()
                continue
            if next_version in self._reserved:
                # A certified local transaction owns this version; it will
                # advance the clock when it commits.  Checked before the
                # pending map: a gap-repair replay may also hold the version
                # as a refresh, and the reservation must win or the commit
                # would be applied twice.  The wait is also wakeable so a
                # crash/recovery (which voids reservations and replays the
                # version as a refresh) cannot strand us.
                self._applier_wakeup = Event(self.env)
                yield self.env.any_of(
                    [self.clock.wait_for(next_version), self._applier_wakeup]
                )
                self._applier_wakeup = None
            elif next_version in self._pending_refresh:
                batch = self._drain_refresh_run(next_version)
                if len(batch) == 1:
                    # One version pending: identical CPU pricing (and RNG
                    # draw) to the unbatched path, so enabling batching is
                    # behaviour-neutral until a backlog actually forms.
                    service = self.perf.refresh(len(batch[0][1]))
                else:
                    total_ops = sum(len(ws) for _, ws in batch)
                    service = self.perf.refresh_batch(len(batch), total_ops)
                    self.refresh_batches += 1
                yield from self.cpu.use(service)
                if self.crashed:
                    continue
                self._apply_refresh_run(batch)
            else:
                self._applier_wakeup = Event(self.env)
                yield self._applier_wakeup
                self._applier_wakeup = None

    def _ready_pending_version(self) -> Optional[int]:
        """Smallest pending global version whose per-partition predecessors
        have all been applied (partitioned mode).

        A pending refresh without a predecessor vector (sent by a
        pre-partitioning certifier) falls back to strict prefix order.
        Versions reserved by local certified transactions are owned by
        their commits and skipped.
        """
        best: Optional[int] = None
        for version in self._pending_refresh:
            if version in self._reserved:
                continue
            if self.engine.database.has_applied(version):
                continue
            prevs = self._pending_prevs.get(version)
            if prevs is None:
                ready = version == self.engine.version + 1
            else:
                ready = all(
                    self.engine.database.has_applied(prev) for _p, prev in prevs
                )
            if ready and (best is None or version < best):
                best = version
        return best

    def _apply_ready_partitioned(self):
        """One applier turn in partitioned mode: install the smallest ready
        refresh (its partition predecessors are applied), or sleep."""
        version = self._ready_pending_version()
        if version is None:
            self._applier_wakeup = Event(self.env)
            yield self._applier_wakeup
            self._applier_wakeup = None
            return
        writeset = self._pending_refresh[version]
        yield from self.cpu.use(self.perf.refresh(len(writeset)))
        if self.crashed:
            return
        # Re-validate against what happened while the apply held the CPU:
        # the version may have been applied by a recovery replay, or claimed
        # by a certify reply for a local in-flight transaction.
        if self.engine.database.has_applied(version) or version in self._reserved:
            self._pending_refresh.pop(version, None)
            self._pending_prevs.pop(version, None)
            return
        self._install_refresh(writeset, version)
        self.refresh_applied_count += 1
        self._pending_refresh.pop(version, None)
        self._pending_prevs.pop(version, None)
        self._advance_partition_clocks(version, writeset)
        # The watermark may have absorbed a whole applied-ahead run; the
        # main clock (and the progress report to the certifier) follow it,
        # never the raw version — the watermark is the valid replay floor.
        self.clock.advance_to(self.engine.version)
        self._send_commit_applied(self.engine.version, len(writeset))

    def _advance_partition_clocks(self, version: int, writeset) -> None:
        """Advance the apply horizon of every partition ``writeset``
        touches to ``version``."""
        if not self.partitioned:
            return
        for p in self.partition_map.partitions_for(writeset.tables):
            self.partition_clocks[p].advance_to(version)

    def _install_refresh(self, writeset, version: int) -> None:
        """Install one refresh writeset, honouring an armed corruption fault
        (``FaultInjector.skip_refresh`` / ``double_apply_refresh``)."""
        if TRACER.enabled and TRACER.version_sampled(version):
            # Every apply path funnels through here — the in-order applier,
            # the batched run, the partitioned applier and recovery/catch-up
            # replay — so this is the one refresh-apply trace point.
            TRACER.instant(
                "refresh.apply", self.name, self.env.now,
                commit_version=version, attrs={"ops": len(writeset)},
            )
        mode = self._corrupt_next_refresh
        if mode is not None:
            self._corrupt_next_refresh = None
            self.engine.database.apply_writeset_corrupted(writeset, version, mode)
            self.corrupted_applies.append((self.env.now, mode, version))
            return
        self.engine.apply_refresh(writeset, version)

    def _drain_refresh_run(self, next_version: int) -> list:
        """Pop the maximal run of consecutive pending versions starting at
        ``next_version`` (a single version when batching is off).  The run
        stops at a gap, at a version reserved by a local certified
        transaction (the local commit owns it), or at the batch limit."""
        batch = [(next_version, self._pending_refresh.pop(next_version))]
        if self.batch_refresh_apply:
            version = next_version + 1
            while (
                len(batch) < self.refresh_batch_limit
                and version in self._pending_refresh
                and version not in self._reserved
            ):
                batch.append((version, self._pending_refresh.pop(version)))
                version += 1
        return batch

    def _apply_refresh_run(self, batch: list) -> None:
        """Install a drained run in one engine pass, re-validating each
        version against what happened while the apply held the CPU."""
        for position, (version, writeset) in enumerate(batch):
            if self.crashed:
                return
            if self.engine.version >= version:
                # Applied while the CPU was held (e.g. a recovery replay
                # raced a local commit that already owned the version).
                continue
            if version in self._reserved:
                # While the apply held the CPU, a certify reply assigned
                # this version to a local transaction (a recovery replay
                # racing an in-flight certification).  The local commit owns
                # the version; applying the drained copy on top would be a
                # duplicate and kill the applier.  The rest of the run must
                # wait behind that commit — put it back in the pending map.
                for later, later_ws in batch[position:]:
                    if (
                        later > self.engine.version
                        and later not in self._reserved
                        and later not in self._pending_refresh
                    ):
                        self._enqueue_refresh(later, later_ws)
                return
            self._install_refresh(writeset, version)
            self.refresh_applied_count += 1
            # A duplicate of this version may have arrived while the apply
            # held the CPU; drop it so it cannot linger.
            self._pending_refresh.pop(version, None)
            self.clock.advance_to(version)
            self._send_commit_applied(version, len(writeset))

    def _vacuum_loop(self, interval_ms: float):
        """Periodically trim row versions no local snapshot can still read.

        The safe horizon is the oldest active local snapshot (or the current
        version when idle); vacuuming below it preserves every visible read.
        """
        while True:
            yield self.env.timeout(interval_ms)
            if self.crashed:
                continue
            oldest = self.engine.oldest_active_snapshot()
            horizon = self.engine.version if oldest is None else oldest
            self.vacuumed_versions += self.engine.database.vacuum(horizon)

    # -- early certification -------------------------------------------------
    def early_certification_conflict(
        self, txn: Transaction, table: str, key: Any
    ) -> Optional[str]:
        """Statement-side check of the row a statement just buffered: is it
        written by a pending refresh writeset (or, optionally, already
        overwritten past the snapshot)?  Returns the abort reason or None.

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
        if self.precheck_committed:
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
    def _send_commit_applied(self, commit_version: int, writeset_size: int) -> None:
        """Report this replica's commit of ``commit_version`` to the
        certifier.

        Lazy policies report immediately — the replicas run with
        log-forcing off and the report is pure progress tracking.  A policy
        with a synchronous commit acknowledgment (EAGER) makes the report
        part of the commit round: it first serializes through the replica's
        log-flush device, and the certifier's global-commit counter (and
        hence the client acknowledgment) waits for it.
        """
        flush = self.policy.commit_ack_flush(self.perf, writeset_size)
        if flush > 0:
            self.env.process(
                self._flush_and_ack(commit_version, flush),
                name=f"{self.name}-flush-v{commit_version}",
            )
            return
        self.network.send(
            self.name, self.certifier_name, CommitApplied(self.name, commit_version)
        )

    def _flush_and_ack(self, commit_version: int, flush: float):
        yield from self.flush_device.use(flush)
        if not self.crashed:
            self.network.send(
                self.name, self.certifier_name, CommitApplied(self.name, commit_version)
            )

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
