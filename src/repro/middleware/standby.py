"""Automatic certifier failover — the warm standby.

The paper argues the certifier is "deterministic and lightweight" and can
therefore be made highly available with the state-machine approach.  This
module supplies the running form of that argument:

* the standby **tails the decision log**: the primary ships every appended
  :class:`~.durability.LogEntry` as a :class:`~.messages.DecisionRecord`,
  the standby appends it to its own log copy and acknowledges with a
  :class:`~.messages.DecisionAck` (semi-synchronous shipping — the primary
  releases a decision only once the standby holds it, so no acknowledged
  commit can be lost to a failover);
* the standby **syncs soft state** by heartbeating the primary: acks to the
  standby's pings carry :meth:`~.certifier.Certifier.snapshot_state`
  (membership, replica progress);
* **promotion is vote-driven**: each replica proxy monitors the primary
  with its own heartbeats and votes :class:`~.messages.CertifierSuspected`
  when they time out (retracting when the primary answers again).  The
  standby promotes itself once a majority of the replica electorate agrees.
  Majority voting — rather than the standby's own suspicion — keeps a
  standby that is merely partitioned from the primary from splitting the
  brain while the rest of the cluster still reaches it.

On promotion the standby has the deployment's certifier factory build a
fresh :class:`Certifier` on a **new endpoint name** (``certifier-<epoch>``):
an endpoint name is registered once and keeps its handler for good, and
messages still in flight to the dead primary must die with it rather than
reach a successor that never sent the requests they answer.  A
:class:`~.messages.StandbyPromoted` notice (carrying the new name and epoch)
re-points the proxies and the load balancer, and fences the old primary if
it ever hears it.

Known limitation (documented in ``docs/PROTOCOL.md``): with a single
standby and no quorum on the decision itself, a total partition that
isolates the primary *with* a client-facing majority on each side is not
survivable; the nemesis harness therefore never cuts the primary↔standby
link while also partitioning a majority.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim.kernel import Environment
from ..sim.network import Mailbox, Network
from .certifier import Certifier
from .durability import DecisionLog, LogEntry
from .heartbeat import HeartbeatMonitor, HeartbeatSettings
from .messages import (
    CertifierSuspected,
    DecisionAck,
    DecisionRecord,
    HeartbeatAck,
    HeartbeatPing,
    StandbyPromoted,
)

__all__ = ["CertifierStandby"]


class CertifierStandby:
    """Warm standby: log tail + state sync + majority-vote promotion."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        replica_names: list[str],
        make_certifier: Callable[..., Certifier],
        name: str = "certifier-standby",
        primary_name: str = "certifier",
        balancer_name: str = "lb",
        heartbeat: Optional[HeartbeatSettings] = None,
        promote_hook: Optional[Callable[[Certifier], None]] = None,
        digest_tracker=None,
    ):
        self.env = env
        self.network = network
        #: the deployment's certifier factory, called as
        #: ``make_certifier(name, replica_names, **state)``: the successor
        #: gets the primary's shards, bounds and heartbeat from the one place
        #: that wired the primary
        self.make_certifier = make_certifier
        #: the full replica electorate (votes are counted against this, not
        #: against current membership — a shrunken membership must not make
        #: a lone voter a "majority")
        self.replica_names = list(replica_names)
        self.name = name
        self.primary_name = primary_name
        self.balancer_name = balancer_name
        self.heartbeat = heartbeat or HeartbeatSettings()
        self.promote_hook = promote_hook
        self.mailbox: Mailbox = network.register(name, self._handle)
        #: anti-entropy oracle maintained from the tailed records (seeded
        #: identically to the primary's), handed to the promoted successor so
        #: scrubbing survives a certifier failover
        self.digest_tracker = digest_tracker
        #: state-machine replica of the primary's decision log
        self.log = DecisionLog()
        # Records that arrived ahead of a gap (link jitter can reorder
        # deliveries); appended once the gap fills.  Only the contiguous
        # prefix is acknowledged — an unacknowledged decision is never
        # released by the primary, so losing the buffered tail is safe.
        self._pending_records: dict[int, LogEntry] = {}
        #: voters currently suspecting the primary
        self._votes: set[str] = set()
        #: latest soft-state snapshot piggybacked on the primary's acks
        self._primary_state: Optional[dict] = None
        self.promoted = False
        self.promoted_at: Optional[float] = None
        #: the Certifier constructed at promotion
        self.new_certifier: Optional[Certifier] = None
        #: failover epoch the promoted certifier will carry
        self.epoch = 2
        self.records_applied = 0
        # State-sync heartbeats to the primary.  Suspicion by this monitor
        # is deliberately ignored for promotion (see module docstring).
        self.monitor = HeartbeatMonitor(
            env,
            network,
            owner=name,
            targets=[primary_name],
            settings=self.heartbeat,
            enabled=lambda: not self.promoted,
        )

    # -- inspection ----------------------------------------------------------
    @property
    def votes(self) -> frozenset:
        return frozenset(self._votes)

    @property
    def replicated_version(self) -> int:
        """Newest decision version the standby holds contiguously."""
        return self.log.last_version

    # -- message dispatch ------------------------------------------------------
    def _handle(self, message) -> None:
        if isinstance(message, DecisionRecord):
            self._tail_record(message.entry)
        elif isinstance(message, CertifierSuspected):
            self._handle_vote(message)
        elif isinstance(message, HeartbeatAck):
            if message.sender == self.primary_name and isinstance(message.payload, dict):
                self._primary_state = message.payload
            self.monitor.observe_ack(message)
        elif isinstance(message, HeartbeatPing):
            self.network.send(
                self.name, message.sender, HeartbeatAck(self.name, message.seq)
            )
        else:
            raise TypeError(f"{self.name} got unexpected message {message!r}")

    # -- log tailing -----------------------------------------------------------
    def _tail_record(self, entry: LogEntry) -> None:
        if self.promoted:
            return  # a fenced/dying primary's leftovers
        version = entry.commit_version
        if version <= self.log.last_version:
            # Duplicate (e.g. primary resend); re-ack so its waiter releases.
            self.network.send(self.name, self.primary_name, DecisionAck(version))
            return
        self._pending_records[version] = entry
        while self.log.last_version + 1 in self._pending_records:
            ready = self._pending_records.pop(self.log.last_version + 1)
            self.log.append(ready)
            if self.digest_tracker is not None:
                self.digest_tracker.apply(ready.writeset, ready.commit_version)
            self.records_applied += 1
            self.network.send(
                self.name, self.primary_name, DecisionAck(ready.commit_version)
            )

    # -- promotion ------------------------------------------------------------
    def _handle_vote(self, vote: CertifierSuspected) -> None:
        if self.promoted or vote.certifier != self.primary_name:
            return
        if vote.retract:
            self._votes.discard(vote.voter)
            return
        self._votes.add(vote.voter)
        if 2 * len(self._votes) > len(self.replica_names):
            self._promote()

    def _promote(self) -> Certifier:
        """Become the certifier: fresh endpoint, bumped epoch, notices out."""
        self.promoted = True
        self.promoted_at = self.env.now
        new_name = f"certifier-{self.epoch}"
        successor = self.make_certifier(
            new_name,
            # Construct over the full electorate so the successor's monitor
            # pings every replica; the snapshot below narrows *membership*
            # to the primary's last known view without shrinking the watch.
            list(self.replica_names),
            log=self.log,
            epoch=self.epoch,
            digest_tracker=self.digest_tracker,
        )
        if self._primary_state is not None:
            successor.restore_state(self._primary_state)
        self.new_certifier = successor
        notice = StandbyPromoted(new_name, self.epoch)
        for target in [*self.replica_names, self.balancer_name, self.primary_name]:
            self.network.send(self.name, target, notice)
        if self.promote_hook is not None:
            self.promote_hook(successor)
        return successor
