"""Replica lifecycle: checkpoint-based bootstrap of fresh or stale replicas.

The paper's middleware assumes a fixed replica set; everything below makes
membership elastic without weakening the consistency story.  A replica that
is brand new (empty storage) or that returned after the certifier's
``departed_grace_ms`` purge truncated the decision log past its version
(``stale_recovery_refusals``) cannot be caught up by replay alone — it needs
**state transfer**.  The coordinator drives a three-state lifecycle:

1. **joining** — the load balancer admits the node in the ``joining`` state:
   it is registered but receives no client traffic.  The node's proxy is
   flagged ``bootstrapping`` (suppressing its own gap-repair recovery
   requests — the certifier must not re-admit it yet) and a healthy donor is
   asked for a version-stamped fuzzy checkpoint: the scrubber's
   :class:`~.messages.TableSyncRequest` capture, taken atomically at the
   donor's ``V_local``, of every table's latest row images.  The joiner
   installs it via ``Database.resync_table`` + ``adopt_checkpoint`` — the
   same ``replace_rows(keep_newer_than)`` machinery online repair uses — and
   is then exactly at the checkpoint version.
2. **catching-up** — the coordinator polls :class:`~.messages.CatchUpRequest`
   replays on the joiner's behalf: the certifier serves the decision-log
   suffix above the joiner's version *without re-admitting it*, so a replica
   behind the pack never pins the replication horizon and never stalls
   EAGER's global-commit counting.  The replay flows through the proxy's
   normal recovery path (the replay carries the predecessor vectors
   when the certifier has more than one shard).  If the log is truncated past the joiner again
   mid-flight, the transfer restarts from a fresh checkpoint.
3. **live** — once the certifier's ``V_commit`` is within ``live_lag``
   versions of the joiner, the coordinator re-admits it atomically through a
   normal :class:`~.messages.RecoveryRequest` (membership + horizon +
   heartbeat targets + refresh fan-out, plus the replay of the last few
   versions), returns it to the balancer's routing set, and registers it
   with the scrubber.

The same path turns the stale-recovery dead end into an automatic
re-bootstrap: the certifier's refusal now carries a machine-readable
``bootstrap_required`` reason, the refused proxy forwards it here as a
:class:`~.messages.BootstrapRequired`, and the coordinator re-runs the
lifecycle for it.

Everything is opt-in (``ClusterConfig(bootstrap=None)`` keeps the
coordinator unconstructed) and the defaults-off path is trace-identical to
a build without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..sim.kernel import Environment
from ..sim.network import Mailbox, Network
from .messages import (
    BootstrapRequired,
    CatchUpRequest,
    CheckpointInstall,
    CheckpointInstalled,
    RecoveryRequest,
    TableSyncReply,
    TableSyncRequest,
)

__all__ = ["BootstrapSettings", "BootstrapCoordinator"]


@dataclass(frozen=True)
class BootstrapSettings:
    """Knobs of the replica lifecycle (see docs/TUNING.md)."""

    #: catching-up → live threshold: the joiner is re-admitted once it is
    #: within this many versions of ``V_commit``, or — under continuous
    #: load, where the poll loop floors above any absolute bound — once it
    #: consumes a whole replay window within one round (the remainder
    #: replays during re-admission)
    live_lag: int = 4
    #: poll period of the bootstrap state machine (ms): donor retry,
    #: catch-up round pacing, membership confirmation
    retry_ms: float = 25.0
    #: how long a checkpoint transfer may be outstanding before it is
    #: retried against a freshly chosen donor (lost to a crash or partition)
    checkpoint_timeout_ms: float = 200.0

    def __post_init__(self):
        if self.live_lag < 0:
            raise ValueError("live_lag must be >= 0")
        if self.retry_ms <= 0:
            raise ValueError("retry_ms must be positive")
        if self.checkpoint_timeout_ms <= 0:
            raise ValueError("checkpoint_timeout_ms must be positive")


class BootstrapCoordinator:
    """State-transfer coordinator: drives joining → catching-up → live."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        balancer,
        certifier_provider: Callable,
        replicas: dict,
        scrubber=None,
        settings: Optional[BootstrapSettings] = None,
        name: str = "bootstrap",
    ):
        self.env = env
        self.network = network
        self.balancer = balancer
        #: callable returning the current certifier — a callable (not the
        #: certifier itself) so a failover transparently re-points the
        #: coordinator at the promoted successor
        self.certifier_provider = certifier_provider
        #: live name → proxy map (the cluster's own dict, so replicas added
        #: online are visible without re-wiring)
        self.replicas = replicas
        self.scrubber = scrubber
        self.settings = settings if settings is not None else BootstrapSettings()
        self.name = name
        self.mailbox: Mailbox = network.register(name, self._handle)

        #: replicas with an in-flight bootstrap (dedupes re-triggers)
        self._active: set[str] = set()
        #: checkpoint round counter (round ids match capture to install)
        self._round = 0
        #: replica -> round id of its outstanding checkpoint transfer
        self._sync_round: dict[str, int] = {}
        #: replica -> virtual time its current transfer was requested
        self._sync_sent_at: dict[str, float] = {}
        #: replica -> installed checkpoint version (set by the install ack)
        self._installed: dict[str, int] = {}

        # Counters (stats() snapshots these).
        self.bootstraps_started = 0
        self.bootstraps_completed = 0
        self.checkpoints_requested = 0
        self.checkpoints_forwarded = 0
        self.catch_up_rounds = 0
        self.rebootstraps_triggered = 0
        #: lifecycle audit trail: ``(time, state, replica, detail)`` tuples
        self.events: list[tuple] = []

    # -- inspection ----------------------------------------------------------
    @property
    def active(self) -> frozenset:
        """Replicas currently being bootstrapped."""
        return frozenset(self._active)

    def stats(self) -> dict:
        """The ``bootstrap.*`` metrics subtree (names cataloged in
        docs/OBSERVABILITY.md)."""
        return {
            "bootstraps_started": self.bootstraps_started,
            "bootstraps_completed": self.bootstraps_completed,
            "checkpoints_requested": self.checkpoints_requested,
            "checkpoints_forwarded": self.checkpoints_forwarded,
            "catch_up_rounds": self.catch_up_rounds,
            "rebootstraps_triggered": self.rebootstraps_triggered,
            "active": sorted(self._active),
        }

    # -- entry points --------------------------------------------------------
    def bootstrap(self, replica: str) -> bool:
        """Begin (or dedupe) the lifecycle for ``replica``; returns whether
        a new bootstrap was started."""
        if replica in self._active:
            return False
        if replica not in self.replicas:
            raise ValueError(f"unknown replica {replica!r}")
        self._active.add(replica)
        self.bootstraps_started += 1
        self.env.process(self._drive(replica), name=f"{self.name}-{replica}")
        return True

    # -- message handling -----------------------------------------------------
    def _handle(self, message) -> None:
        if isinstance(message, TableSyncReply):
            self._forward_checkpoint(message)
        elif isinstance(message, CheckpointInstalled):
            if message.round_id == self._sync_round.get(message.replica):
                self._installed[message.replica] = message.version
        elif isinstance(message, BootstrapRequired):
            if message.replica not in self._active:
                self.rebootstraps_triggered += 1
                self._event("bootstrap-required", message.replica, {
                    "first_replayable": message.first_replayable,
                })
                self.bootstrap(message.replica)
        else:
            raise TypeError(f"{self.name} got unexpected message {message!r}")

    def _forward_checkpoint(self, sync: TableSyncReply) -> None:
        """Donor images arrived: ship them to the joiner as a checkpoint."""
        if sync.target not in self._active:
            return  # bootstrap finished (or was never ours); drop
        if sync.round_id != self._sync_round.get(sync.target):
            return  # a stale transfer superseded by a retry; drop
        self.checkpoints_forwarded += 1
        self.network.send(
            self.name,
            sync.target,
            CheckpointInstall(
                reply_to=self.name,
                round_id=sync.round_id,
                checkpoint_version=sync.version,
                rows=sync.rows,
            ),
        )

    # -- the lifecycle driver -------------------------------------------------
    def _drive(self, replica: str):
        proxy = self.replicas[replica]
        proxy.bootstrapping = True
        self.balancer.admit_joining(replica)
        self._event("joining", replica, {"v_local": proxy.v_local})
        try:
            while True:
                yield from self._transfer_checkpoint(replica, proxy)
                if not (yield from self._catch_up(replica, proxy)):
                    continue  # truncated past us mid-flight: new checkpoint
                if (yield from self._finalize(replica, proxy)):
                    break
            self.balancer.set_live(replica)
            if self.scrubber is not None:
                self.scrubber.add_replica(replica)
            self.bootstraps_completed += 1
            self._event("live", replica, {
                "v_local": proxy.v_local,
                "lag": self.certifier_provider().commit_version - proxy.v_local,
            })
        finally:
            self._active.discard(replica)
            self._sync_round.pop(replica, None)
            self._sync_sent_at.pop(replica, None)
            self._installed.pop(replica, None)

    def _transfer_checkpoint(self, replica: str, proxy):
        """JOINING: obtain and install one donor checkpoint.

        Requests a fuzzy per-table capture from the healthiest donor and
        waits for the joiner's install ack, re-requesting against a freshly
        chosen donor whenever a transfer stays outstanding past
        ``checkpoint_timeout_ms`` (donor crash, partition, lost reply).
        """
        self._installed.pop(replica, None)
        self._sync_round.pop(replica, None)
        while self._installed.get(replica) is None:
            outstanding = self._sync_round.get(replica)
            waited = self.env.now - self._sync_sent_at.get(replica, 0.0)
            if outstanding is None or waited >= self.settings.checkpoint_timeout_ms:
                donor = self._pick_donor(replica)
                if donor is not None:
                    self._round += 1
                    self._sync_round[replica] = self._round
                    self._sync_sent_at[replica] = self.env.now
                    self.checkpoints_requested += 1
                    self._event("checkpoint-requested", replica, {
                        "donor": donor,
                        "donor_version": self.replicas[donor].v_local,
                    })
                    self.network.send(
                        self.name,
                        donor,
                        TableSyncRequest(
                            reply_to=self.name,
                            target=replica,
                            tables=tuple(
                                self.replicas[donor].engine.database.table_names
                            ),
                            round_id=self._round,
                        ),
                    )
            yield self.env.timeout(self.settings.retry_ms)
        version = self._installed.pop(replica)
        self._sync_round.pop(replica, None)
        self._sync_sent_at.pop(replica, None)
        self._event("catching-up", replica, {"checkpoint_version": version})

    def _catch_up(self, replica: str, proxy):
        """CATCHING-UP: poll replays until within the lag bound.

        Returns False when the decision log was truncated past the joiner
        again mid-flight (the caller restarts with a fresh checkpoint).
        """
        window_target = None
        while True:
            certifier = self.certifier_provider()
            if proxy.v_local < certifier.first_replayable_version() - 1:
                return False
            if certifier.commit_version - proxy.v_local <= self.settings.live_lag:
                return True  # within the absolute bound (idle/light load)
            if window_target is not None and proxy.v_local >= window_target:
                # Under continuous load the poll-and-replay loop floors at
                # commit_rate × retry_ms versions behind — an absolute bound
                # below that would never be met.  Consuming the *whole
                # previous round's window* within one round means only the
                # last round's commits remain, and the re-admission replay
                # covers those atomically.
                return True
            window_target = certifier.commit_version
            self.catch_up_rounds += 1
            self.network.send(
                self.name,
                certifier.name,
                CatchUpRequest(replica, proxy.v_local),
            )
            yield self.env.timeout(self.settings.retry_ms)

    def _finalize(self, replica: str, proxy):
        """LIVE: atomically re-admit the caught-up joiner.

        The normal :class:`RecoveryRequest` path re-admits it into
        membership, the horizon computation and the certifier's heartbeat
        targets, and replays the last few versions.  Gap repair is
        re-enabled first — from here on the joiner maintains itself like
        any other replica.  Returns False when the certifier refuses
        (truncation raced the hand-off; the caller re-checkpoints).
        """
        proxy.bootstrapping = False
        while True:
            certifier = self.certifier_provider()
            if replica in certifier.replica_names:
                return True
            if proxy.v_local < certifier.first_replayable_version() - 1:
                proxy.bootstrapping = True
                return False
            self.network.send(
                self.name,
                certifier.name,
                RecoveryRequest(replica, proxy.v_local),
            )
            yield self.env.timeout(self.settings.retry_ms)

    # -- helpers --------------------------------------------------------------
    def _pick_donor(self, target: str) -> Optional[str]:
        """The healthiest donor: routable (up, not quarantined, not itself
        joining) at the highest version — minimising the catch-up window the
        checkpoint leaves behind.  None when no donor is available."""
        quarantined = self.balancer.quarantined_replicas
        joining = self.balancer.joining_replicas
        candidates = [
            r
            for r in self.balancer.up_replicas
            if r != target
            and r not in quarantined
            and r not in joining
            and r in self.replicas
            and not self.replicas[r].crashed
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda r: (self.replicas[r].v_local, r))

    def _event(self, state: str, replica: str, detail: dict) -> None:
        self.events.append((self.env.now, state, replica, detail))
