"""The nemesis — seeded background chaos against a live cluster.

Inspired by Jepsen's nemesis process: while a workload runs, a seeded
scheduler randomly crashes and recovers replicas, cuts and heals directed
network links, and (optionally, once) kills the certifier so the standby
must promote itself.  At the end of its window it heals every fault it
injected so the run can converge and be audited.

Safety envelope — the nemesis stays inside the failure model the
self-healing stack is designed for (and the docs are honest about):

* at most a **minority** of replicas is crashed at any time, so the replica
  electorate can always reach the promotion majority;
* links touching the **standby** are never cut (a single semi-synchronous
  standby cannot survive losing its shipping channel; quorum replication
  would be needed — see ``docs/PROTOCOL.md``);
* the certifier kill happens only when all replicas are up, so detection
  votes can actually assemble a majority.

Every injected fault is appended to :attr:`Nemesis.actions` as
``(virtual_time_ms, action, detail)`` for debugging failed audits: a seed
reproduces its schedule exactly.
"""

from __future__ import annotations

from typing import Optional

from ..core.cluster import ReplicatedDatabase
from ..middleware.heartbeat import HeartbeatSettings
from ..sim.rng import Rng
from .injector import FaultInjector

__all__ = ["Nemesis"]


class Nemesis:
    """Seeded fault scheduler running as a simulation process."""

    def __init__(
        self,
        cluster: ReplicatedDatabase,
        rng: Rng,
        duration_ms: float,
        injector: Optional[FaultInjector] = None,
        mean_interval_ms: float = 150.0,
        fault_duration_ms: tuple[float, float] = (80.0, 400.0),
        kill_certifier: bool = False,
        certifier_kill_after_ms: float = 500.0,
        max_partitions: int = 2,
        overload_bursts: bool = False,
        overload_request_count: int = 40,
        corruption: bool = False,
        max_corruptions: int = 3,
        rolling_restart: bool = False,
    ):
        if duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        self.cluster = cluster
        self.rng = rng
        self.duration_ms = duration_ms
        self.injector = injector if injector is not None else FaultInjector(cluster)
        self.mean_interval_ms = mean_interval_ms
        self.fault_duration_ms = fault_duration_ms
        self.kill_certifier = kill_certifier
        self.certifier_kill_after_ms = certifier_kill_after_ms
        self.max_partitions = max_partitions
        #: include "overload" faults: a burst of synthetic read-only load
        #: straight at one replica (off by default so existing seeded
        #: schedules replay unchanged)
        self.overload_bursts = overload_bursts
        self.overload_request_count = overload_request_count
        #: include "corrupt" faults: silent divergence (bit rot, lost or
        #: doubled refresh applies) on one live replica — only meaningful
        #: against a cluster running the scrubber, and off by default so
        #: existing seeded schedules replay unchanged
        self.corruption = corruption
        self.max_corruptions = max_corruptions
        #: run the deterministic-shape rolling-restart script instead of the
        #: random schedule: serially crash-restart every replica (and hold
        #: one past the departed-grace purge + an explicit log truncation so
        #: it must return through a full bootstrap), awaiting each node's
        #: return to ``live`` before moving on.  Off by default so existing
        #: seeded schedules replay unchanged.
        self.rolling_restart = rolling_restart
        #: (virtual time, action, detail) — the reproducible fault schedule
        self.actions: list[tuple[float, str, str]] = []
        #: links currently cut by this nemesis: (sender, recipient, symmetric)
        self._cut_links: list[tuple[str, str, bool]] = []
        self.certifier_killed = False
        self.finished = False
        self._start = cluster.env.now
        self._process = cluster.env.process(self._run(), name="nemesis")

    # -- schedule ------------------------------------------------------------
    def _log(self, action: str, detail: str) -> None:
        self.actions.append((self.cluster.env.now, action, detail))

    def _majority_safe_to_crash(self) -> bool:
        total = len(self.cluster.replica_names)
        up_after = total - len(self.injector.crashed_replicas) - 1
        return 2 * up_after > total

    def _run(self):
        if self.rolling_restart:
            yield from self._run_rolling_restart()
            self._heal_everything()
            self.finished = True
            return
        env = self.cluster.env
        deadline = self._start + self.duration_ms
        while True:
            yield env.timeout(self.rng.exponential(self.mean_interval_ms))
            if env.now >= deadline:
                break
            self._inject_one()
        self._heal_everything()
        self.finished = True

    def _run_rolling_restart(self):
        """Serially crash-restart every replica under live load.

        One rng-chosen victim (when the cluster purges departed horizon
        pins and runs the bootstrap coordinator) is held down past the
        suspicion + grace window and the decision log is explicitly
        truncated past it — replay recovery becomes impossible and the
        replica must return through the full checkpoint bootstrap.  Every
        other victim restarts within its grace window and recovers by
        replay.  Each node must be back to ``live`` (certifier membership +
        balancer routing set, not joining, not quarantined) before the next
        is taken down, so a minority-crash envelope holds trivially.
        """
        env = self.cluster.env
        config = self.cluster.config
        names = list(self.cluster.replica_names)
        purge_target = None
        if config.departed_grace_ms is not None and self.cluster.bootstrap is not None:
            purge_target = names[self.rng.randint(0, len(names) - 1)]
        for name in names:
            yield env.timeout(self.rng.uniform(*self.fault_duration_ms))
            if not self._majority_safe_to_crash():
                self._log("rolling-skip", f"{name} (majority unsafe)")
                continue
            self.injector.crash_replica(name)
            self._log("rolling-crash", name)
            if name == purge_target:
                # Hold past detection + departed grace so the certifier
                # drops this replica's horizon pin, then truncate: the log
                # suffix the returnee would need is gone.
                heartbeat = config.heartbeat or HeartbeatSettings()
                interval = heartbeat.interval_ms
                hold = (
                    (heartbeat.suspicion_threshold + 1) * interval
                    + config.departed_grace_ms
                    + 3 * interval
                )
                yield env.timeout(hold)
                dropped = self.cluster.certifier.truncate_log()
                self._log(
                    "rolling-purge",
                    f"{name} held {hold:.0f}ms, truncated {dropped} entries",
                )
            else:
                yield env.timeout(self.rng.uniform(*self.fault_duration_ms))
            self.injector.recover_replica(name)
            self._log("rolling-recover", name)
            yield from self._await_live(name)

    def _await_live(self, name: str, timeout_ms: float = 10_000.0):
        """Poll until ``name`` is fully back in rotation (or time out)."""
        env = self.cluster.env
        balancer = self.cluster.load_balancer
        deadline = env.now + timeout_ms
        while env.now < deadline:
            certifier = self.cluster.certifier
            if (
                name in certifier.replica_names
                and name in balancer.up_replicas
                and name not in balancer.joining_replicas
                and name not in balancer.quarantined_replicas
            ):
                self._log("rolling-live", name)
                return
            yield env.timeout(10.0)
        self._log("rolling-live-timeout", name)

    def _inject_one(self) -> None:
        choices = []
        if self._majority_safe_to_crash():
            choices.append("crash")
        if self.injector.crashed_replicas:
            choices.append("recover")
        if len(self._cut_links) < self.max_partitions:
            choices.append("partition")
        if self._cut_links:
            choices.append("heal")
        if self.overload_bursts and self.injector.surviving_replicas():
            choices.append("overload")
        if (
            self.corruption
            and len(self.injector.corruptions) < self.max_corruptions
            and self.injector.surviving_replicas()
        ):
            choices.append("corrupt")
        if (
            self.kill_certifier
            and not self.certifier_killed
            and self.cluster.standby is not None
            and not self.injector.crashed_replicas
            and self.cluster.env.now - self._start >= self.certifier_kill_after_ms
        ):
            choices.append("kill-certifier")
        if not choices:
            return
        action = self.rng.choice(choices)
        getattr(self, f"_do_{action.replace('-', '_')}")()

    def _do_crash(self) -> None:
        name = self.rng.choice(self.injector.surviving_replicas())
        self.injector.crash_replica(name)
        self._log("crash", name)
        self._schedule_heal("recover", name)

    def _do_recover(self) -> None:
        name = self.rng.choice(sorted(self.injector.crashed_replicas))
        self.injector.recover_replica(name)
        self._log("recover", name)

    def _do_partition(self) -> None:
        # One directed (or symmetric) link between a replica and either the
        # balancer or the live certifier; standby links are off-limits.
        replica = self.rng.choice(self.cluster.replica_names)
        peer = self.rng.choice(["lb", self.cluster.certifier.name])
        sender, recipient = (
            (replica, peer) if self.rng.random() < 0.5 else (peer, replica)
        )
        symmetric = self.rng.random() < 0.5
        self.injector.partition_link(sender, recipient, symmetric=symmetric)
        self._cut_links.append((sender, recipient, symmetric))
        arrow = "<->" if symmetric else "->"
        self._log("partition", f"{sender}{arrow}{recipient}")
        self._schedule_heal("heal-link", (sender, recipient, symmetric))

    def _do_heal(self) -> None:
        link = self._cut_links.pop(self.rng.randint(0, len(self._cut_links) - 1))
        self.injector.heal_link(link[0], link[1], symmetric=link[2])
        self._log("heal", f"{link[0]}->{link[1]}")

    def _do_overload(self) -> None:
        name = self.rng.choice(self.injector.surviving_replicas())
        sent = self.injector.overload(name, requests=self.overload_request_count)
        self._log("overload", f"{name} x{sent}")

    def _do_corrupt(self) -> None:
        name = self.rng.choice(self.injector.surviving_replicas())
        kind = self.rng.choice(["corrupt_row", "skip_refresh", "double_apply"])
        if kind == "corrupt_row":
            try:
                table, key = self.injector.corrupt_row(name)
            except ValueError:
                # No visible rows yet (workload barely started); skip the
                # tick rather than crash the schedule.
                self._log("corrupt-skipped", f"{name} (no visible rows)")
                return
            self._log("corrupt", f"{name} corrupt_row {table}:{key}")
        elif kind == "skip_refresh":
            self.injector.skip_refresh(name)
            self._log("corrupt", f"{name} skip_refresh")
        else:
            self.injector.double_apply_refresh(name)
            self._log("corrupt", f"{name} double_apply_refresh")

    def _do_kill_certifier(self) -> None:
        killed = self.injector.kill_certifier()
        self.certifier_killed = True
        self._log("kill-certifier", killed.name)

    def _schedule_heal(self, kind: str, target) -> None:
        """Bound every injected fault's lifetime so faults overlap but none
        lasts forever."""
        low, high = self.fault_duration_ms
        delay = self.rng.uniform(low, high)

        def _healer():
            yield self.cluster.env.timeout(delay)
            if kind == "recover":
                if target in self.injector.crashed_replicas:
                    self.injector.recover_replica(target)
                    self._log("recover", f"{target} (scheduled)")
            else:
                if target in self._cut_links:
                    self._cut_links.remove(target)
                    self.injector.heal_link(target[0], target[1], symmetric=target[2])
                    self._log("heal", f"{target[0]}->{target[1]} (scheduled)")

        self.cluster.env.process(_healer(), name=f"nemesis-heal-{kind}")

    def _heal_everything(self) -> None:
        """End of the chaos window: restore the cluster to a faultless state
        (the audit needs a converged end state)."""
        for link in list(self._cut_links):
            self._cut_links.remove(link)
            self.injector.heal_link(link[0], link[1], symmetric=link[2])
        self.injector.heal_all_links()
        for name in sorted(self.injector.crashed_replicas):
            self.injector.recover_replica(name)
        self._log("final-heal", "all links healed, all replicas recovered")
