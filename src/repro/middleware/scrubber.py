"""The scrubber: silent-divergence detection, quarantine, and online repair.

The paper's correctness story assumes replicas apply refresh transactions
faithfully; nothing in the protocol notices a replica whose state silently
diverged (a lost or doubled apply, bit rot under the storage engine).  The
load balancer would keep routing "strongly consistent" reads to wrong data
forever.  This module closes that hole with a classic anti-entropy loop:

1. **Collect** — every ``interval_ms`` the scrubber sends each replica a
   :class:`~.messages.DigestRequest`.  The replica answers at its *own*
   current ``V_local`` (no pinning round trip): the certifier-side
   :class:`~repro.storage.digest.DigestTracker` keeps a change-point history
   per table, so the expectation can be computed at any un-truncated version
   — apples-to-apples regardless of replica lag.  A *deep* request (the
   default) makes the replica rescan its visible rows, which is the only way
   to catch in-place corruption beneath the incremental bookkeeping; a light
   request answers from the incremental digests and only catches apply bugs.
2. **Compare** — each reply's digest vector is checked against
   ``tracker.expected_at(reply.version)``.  A mismatch names the diverged
   table(s) directly (digests are per-table).  Replies flagged unaligned
   (versions installed ahead of the watermark) are
   skipped, not alarmed — the next round re-checks.
3. **Quarantine** — a diverged replica is fenced off via
   :meth:`~.loadbalancer.LoadBalancer.quarantine_replica`: client traffic
   stops (queued and in-flight requests evacuate per the PR 4 semantics) but
   the replica stays in certifier membership and keeps applying refreshes.
4. **Repair** — with ``auto_repair`` the scrubber asks a healthy peer for
   the diverged tables' latest row images (:class:`~.messages.TableSyncRequest`)
   and ships them to the quarantined replica as a
   :class:`~.messages.RepairApply`; the replica swaps the table state in
   place (safe — it serves no reads) and its catch-up replay composes via
   the resync floor.
5. **Re-verify, then re-admit** — re-admission never rides on the repair
   ack: only a subsequent scrub round whose digest vector matches the
   expectation returns the replica to rotation.

Everything here is opt-in (``scrub_interval_ms=None`` keeps the subsystem
unconstructed) and the defaults-off path is trace-identical to a build
without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..sim.kernel import Environment
from ..sim.network import Mailbox, Network
from .messages import (
    DigestReply,
    DigestRequest,
    RepairAck,
    RepairApply,
    TableSyncReply,
    TableSyncRequest,
)

__all__ = ["ScrubSettings", "Scrubber"]


@dataclass(frozen=True)
class ScrubSettings:
    """Knobs of the anti-entropy loop (see docs/TUNING.md)."""

    #: period between scrub rounds (ms)
    interval_ms: float = 200.0
    #: deep scrubs rescan every visible row (catches bit rot); light scrubs
    #: answer from the incremental digests (catches apply bugs only)
    deep: bool = True
    #: how long a round waits for digest replies before evaluating
    reply_timeout_ms: float = 30.0
    #: drive peer row-sync repair automatically (False = detect and
    #: quarantine only; an operator path re-admits)
    auto_repair: bool = True

    def __post_init__(self):
        if self.interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        if self.reply_timeout_ms <= 0:
            raise ValueError("reply_timeout_ms must be positive")
        if self.reply_timeout_ms >= self.interval_ms:
            raise ValueError("reply_timeout_ms must be below interval_ms")


class Scrubber:
    """Periodic digest comparison, quarantine verdicts, repair orchestration."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        replica_names: list,
        tracker_provider: Callable,
        balancer,
        settings: ScrubSettings,
        name: str = "scrubber",
    ):
        self.env = env
        self.network = network
        self.replica_names = list(replica_names)
        #: callable returning the current expectation oracle — a callable
        #: (not the tracker itself) so a certifier failover transparently
        #: re-points the scrubber at the promoted successor's tracker
        self.tracker_provider = tracker_provider
        self.balancer = balancer
        self.settings = settings
        self.name = name
        self.mailbox: Mailbox = network.register(name, self._handle)

        #: round currently collecting replies (0 = none)
        self._round = 0
        self._replies: dict[str, DigestReply] = {}
        #: replica -> diverged tables awaiting repair
        self._diverged: dict[str, tuple] = {}
        #: replica -> round its repair was initiated in (stale entries are
        #: re-initiated next round, which retries a raced/lost repair)
        self._repair_round: dict[str, int] = {}
        #: replica -> virtual time its quarantine began
        self._quarantined_at: dict[str, float] = {}

        # Counters (stats() snapshots these).
        self.scrub_rounds = 0
        self.digest_replies = 0
        self.divergences_detected = 0
        self.diverged_tables_detected = 0
        self.unaligned_skips = 0
        self.unanswerable_skips = 0
        self.quarantines = 0
        self.readmissions = 0
        self.repairs_completed = 0
        self.rows_repaired = 0
        #: completed quarantine durations (ms, detection -> re-admission)
        self.quarantine_durations: list[float] = []
        #: audit trail: ``(time, event, replica, detail)`` tuples
        self.events: list[tuple] = []

        # Replies are handled as they are delivered, so none is lost
        # between rounds; the round driver is purely a timer.
        env.process(self._drive(), name=f"{name}-loop")

    # -- membership ----------------------------------------------------------
    def add_replica(self, replica: str) -> None:
        """Start scrubbing a replica that joined the cluster online (the
        bootstrap coordinator calls this at its joining → live transition)."""
        if replica not in self.replica_names:
            self.replica_names.append(replica)

    def _joining(self) -> frozenset:
        """Replicas still in the joining/catching-up lifecycle state: not
        judged (a mid-transfer copy would trip a false divergence alarm) and
        never used as repair donors."""
        return getattr(self.balancer, "joining_replicas", frozenset())

    # -- inspection ----------------------------------------------------------
    @property
    def quarantined(self) -> frozenset:
        return frozenset(self._quarantined_at)

    def stats(self) -> dict:
        """The ``scrub.*`` metrics subtree (names cataloged in
        docs/OBSERVABILITY.md)."""
        durations = self.quarantine_durations
        return {
            "rounds": self.scrub_rounds,
            "digest_replies": self.digest_replies,
            "divergences_detected": self.divergences_detected,
            "diverged_tables_detected": self.diverged_tables_detected,
            "unaligned_skips": self.unaligned_skips,
            "unanswerable_skips": self.unanswerable_skips,
            "quarantines": self.quarantines,
            "readmissions": self.readmissions,
            "repairs_completed": self.repairs_completed,
            "rows_repaired": self.rows_repaired,
            "currently_quarantined": sorted(self._quarantined_at),
            "quarantine_durations_ms": list(durations),
            "mean_quarantine_ms": (
                sum(durations) / len(durations) if durations else 0.0
            ),
        }

    # -- message handling -----------------------------------------------------
    def _handle(self, message) -> None:
        if isinstance(message, DigestReply):
            if message.round_id == self._round:
                self._replies[message.replica] = message
            self.digest_replies += 1
        elif isinstance(message, TableSyncReply):
            self._forward_repair(message)
        elif isinstance(message, RepairAck):
            self._finish_repair(message)
        else:
            raise TypeError(f"{self.name} got unexpected message {message!r}")

    def _drive(self):
        while True:
            yield self.env.timeout(self.settings.interval_ms)
            self._round += 1
            self._replies = {}
            for replica in self.replica_names:
                self.network.send(
                    self.name,
                    replica,
                    DigestRequest(
                        reply_to=self.name,
                        round_id=self._round,
                        deep=self.settings.deep,
                    ),
                )
            yield self.env.timeout(self.settings.reply_timeout_ms)
            self.scrub_rounds += 1
            self._evaluate()
            if self.settings.auto_repair:
                self._initiate_repairs()

    # -- detection ------------------------------------------------------------
    def _evaluate(self) -> None:
        tracker = self.tracker_provider()
        if tracker is None:
            return
        joining = self._joining()
        for replica, reply in sorted(self._replies.items()):
            if replica in joining:
                continue
            if not reply.aligned:
                # Versions installed ahead of the watermark: the digests
                # include images above the watermark.  Not a divergence —
                # skip, the next round re-checks.
                self.unaligned_skips += 1
                continue
            expected = tracker.expected_at(reply.version)
            if expected is None:
                # The oracle's history was truncated past this replica's
                # version; it cannot be judged this round.
                self.unanswerable_skips += 1
                continue
            diverged = tuple(
                sorted(
                    table
                    for table, digest in expected.items()
                    if reply.digests.get(table, 0) != digest
                )
            )
            if diverged:
                self._mark_diverged(replica, reply.version, diverged)
            elif replica in self._quarantined_at:
                self._readmit(replica)

    def _mark_diverged(self, replica: str, version: int, tables: tuple) -> None:
        self._diverged[replica] = tables
        if replica in self._quarantined_at:
            return  # already fenced; repair will be (re-)initiated below
        self.divergences_detected += 1
        self.diverged_tables_detected += len(tables)
        self.quarantines += 1
        self._quarantined_at[replica] = self.env.now
        self.events.append((self.env.now, "quarantined", replica, {
            "version": version, "tables": tables,
        }))
        self.balancer.quarantine_replica(replica)

    def _readmit(self, replica: str) -> None:
        """A quarantined replica's digest vector verified clean: return it
        to rotation."""
        started = self._quarantined_at.pop(replica)
        self._diverged.pop(replica, None)
        self._repair_round.pop(replica, None)
        duration = self.env.now - started
        self.quarantine_durations.append(duration)
        self.readmissions += 1
        self.events.append((self.env.now, "readmitted", replica, {
            "quarantined_ms": duration,
        }))
        self.balancer.unquarantine_replica(replica)

    # -- repair ---------------------------------------------------------------
    def _initiate_repairs(self) -> None:
        for replica in sorted(self._quarantined_at):
            tables = self._diverged.get(replica)
            if not tables:
                continue  # repaired; awaiting the re-verify round
            if self._repair_round.get(replica) == self._round:
                continue  # this round already started one
            peer = self._pick_peer(replica)
            if peer is None:
                continue  # no healthy donor this round; retry next
            self._repair_round[replica] = self._round
            self.events.append((self.env.now, "repair-requested", replica, {
                "peer": peer, "tables": tables,
            }))
            self.network.send(
                self.name,
                peer,
                TableSyncRequest(
                    reply_to=self.name,
                    target=replica,
                    tables=tables,
                    round_id=self._round,
                ),
            )

    def _pick_peer(self, target: str) -> Optional[str]:
        """The healthy donor: a replica that answered this round, clean and
        aligned, at the highest version (minimises the race between the
        captured images and the target's ongoing catch-up)."""
        joining = self._joining()
        candidates = [
            reply
            for replica, reply in self._replies.items()
            if replica != target
            and replica not in self._quarantined_at
            and replica not in joining
            and reply.aligned
        ]
        if not candidates:
            return None
        best = max(candidates, key=lambda reply: (reply.version, reply.replica))
        return best.replica

    def _forward_repair(self, sync: TableSyncReply) -> None:
        """Peer images arrived: ship them to the quarantined replica."""
        if sync.target not in self._quarantined_at:
            return  # re-admitted (or never quarantined) meanwhile; drop
        self.network.send(
            self.name,
            sync.target,
            RepairApply(
                reply_to=self.name,
                round_id=sync.round_id,
                synced_version=sync.version,
                rows=sync.rows,
            ),
        )

    def _finish_repair(self, ack: RepairAck) -> None:
        self.repairs_completed += 1
        self.rows_repaired += ack.rows_repaired
        self._diverged.pop(ack.replica, None)
        self._repair_round.pop(ack.replica, None)
        self.events.append((self.env.now, "repaired", ack.replica, {
            "rows_repaired": ack.rows_repaired, "version": ack.version,
        }))
