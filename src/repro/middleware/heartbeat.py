"""Heartbeat-based failure detection.

The paper's crash-recovery failure model says failed hosts are routed
around, but leaves *how the middleware learns of the failure* to the
implementation.  This module supplies that mechanism: a monitor pings its
targets over the simulated network every ``interval_ms``; a target that
misses ``suspicion_threshold`` consecutive heartbeats is **suspected** and
the owner's ``on_suspect`` hook runs (the load balancer stops routing to it,
the certifier excludes it from propagation).  The first acknowledgment from
a suspected target **restores** it.

The suspicion state machine per target::

    UP --(threshold consecutive misses)--> SUSPECT
    SUSPECT --(any ack)--> UP

Detection latency — the time from an actual crash to suspicion — is a
measured quantity: a crash just after an ack costs
``(suspicion_threshold + 1) * interval_ms`` plus one-way latency in the
worst case.  :attr:`HeartbeatMonitor.suspect_times` records each suspicion
so experiments can report it (see ``bench.experiments.availability``).

Monitors are passive about transport: they *send* pings, but the acks are
delivered to the owner's endpoint — the owner's message handler passes them
on through :meth:`HeartbeatMonitor.observe_ack`.  This keeps one endpoint
per component, matching the rest of the middleware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..sim.kernel import Environment
from ..sim.network import Network
from .messages import HeartbeatAck, HeartbeatPing

__all__ = ["HeartbeatSettings", "HeartbeatMonitor"]


@dataclass(frozen=True)
class HeartbeatSettings:
    """Failure-detection tuning shared by every monitor in a cluster."""

    #: ping period in virtual milliseconds
    interval_ms: float = 20.0
    #: consecutive missed heartbeats before a target is suspected
    suspicion_threshold: int = 3

    def __post_init__(self):
        if self.interval_ms <= 0:
            raise ValueError("heartbeat interval_ms must be positive")
        if self.suspicion_threshold < 1:
            raise ValueError("suspicion_threshold must be >= 1")


class HeartbeatMonitor:
    """Pings a set of targets and maintains their suspicion state."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        owner: str,
        targets: list[str],
        settings: HeartbeatSettings,
        on_suspect: Optional[Callable[[str], None]] = None,
        on_restore: Optional[Callable[[str, HeartbeatAck], None]] = None,
        ping_payload: Optional[Callable[[str], Any]] = None,
        enabled: Optional[Callable[[], bool]] = None,
    ):
        self.env = env
        self.network = network
        self.owner = owner
        self.settings = settings
        self.on_suspect = on_suspect
        self.on_restore = on_restore
        self.ping_payload = ping_payload
        #: predicate gating the monitor (a crashed owner must not ping)
        self.enabled = enabled
        self._missed: dict[str, int] = {t: 0 for t in targets}
        self.suspected: set[str] = set()
        #: target -> virtual time of the most recent suspicion
        self.suspect_times: dict[str, float] = {}
        #: target -> virtual time of the most recent restoration
        self.restore_times: dict[str, float] = {}
        self._seq = 0
        self._loop = env.process(self._run(), name=f"{owner}-heartbeat")

    # -- membership ----------------------------------------------------------
    @property
    def targets(self) -> list[str]:
        return list(self._missed)

    def add_target(self, name: str) -> None:
        """Start monitoring ``name`` (fresh, unsuspected)."""
        self._missed.setdefault(name, 0)

    def remove_target(self, name: str) -> None:
        """Stop monitoring ``name``."""
        self._missed.pop(name, None)
        self.suspected.discard(name)

    def replace_target(self, old: str, new: str) -> None:
        """Retarget the monitor (certifier failover re-points it)."""
        self.remove_target(old)
        self.add_target(new)

    def is_suspected(self, name: str) -> bool:
        return name in self.suspected

    # -- transport -----------------------------------------------------------
    def observe_ack(self, ack: HeartbeatAck) -> None:
        """Feed an acknowledgment delivered to the owner's mailbox."""
        name = ack.sender
        if name not in self._missed:
            return
        self._missed[name] = 0
        if name in self.suspected:
            self.suspected.discard(name)
            self.restore_times[name] = self.env.now
            if self.on_restore is not None:
                self.on_restore(name, ack)

    def _run(self):
        while True:
            yield self.env.timeout(self.settings.interval_ms)
            if self.enabled is not None and not self.enabled():
                # A disabled (crashed) owner neither pings nor accumulates
                # misses — its view resumes cleanly once it is back.
                for name in self._missed:
                    self._missed[name] = 0
                continue
            self._seq += 1
            for name in list(self._missed):
                self._missed[name] += 1
                if (
                    self._missed[name] > self.settings.suspicion_threshold
                    and name not in self.suspected
                ):
                    self.suspected.add(name)
                    self.suspect_times[name] = self.env.now
                    if self.on_suspect is not None:
                        self.on_suspect(name)
                payload = self.ping_payload(name) if self.ping_payload else None
                self.network.send(
                    self.owner, name, HeartbeatPing(self.owner, self._seq, payload)
                )
