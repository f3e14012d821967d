"""Fault injection under the crash-recovery failure model (Section IV).

The paper assumes hosts fail independently by crashing and subsequently
recover.  :class:`FaultInjector` drives that model against a running
cluster:

* **replica crash** — the replica loses its soft state (pending refresh
  writesets, active transactions); its durable database survives.  How the
  rest of the cluster reacts depends on the configuration: with heartbeats
  enabled (``ClusterConfig.heartbeat``) the injector only kills the process —
  the load balancer and certifier *detect* the failure through missed
  heartbeats and route around it, which is the honest model (detection
  latency becomes measurable).  Without heartbeats, the injector plays
  oracle and notifies them directly, as before.
* **replica recovery** — the replica rejoins, asks the certifier to replay
  the decisions it missed (the certifier's durable log is the recovery
  source, per the Tashkent design the paper adopts), catches up through the
  normal refresh-application path and resumes serving.
* **link partition** — cut/heal directed network links (asymmetric
  partitions); see :class:`~repro.sim.network.Network`.
* **certifier kill / failover** — :meth:`kill_certifier` crash-stops the
  certifier and lets the configured standby promote itself;
  :meth:`failover_certifier` performs the manual, instantaneous failover
  through the certifier's public state-transfer API.
"""

from __future__ import annotations

from ..core.cluster import ReplicatedDatabase
from ..middleware.certifier import Certifier
from ..middleware.messages import ClientRequest, RoutedRequest, next_request_id
from .corruption import arm_refresh_fault, corrupt_row_in_place

__all__ = ["FaultInjector"]


class FaultInjector:
    """Crash, partition and recover components of a live cluster."""

    def __init__(self, cluster: ReplicatedDatabase):
        self.cluster = cluster
        self.crashed_replicas: set[str] = set()
        self._failover_count = 0
        #: corruption injections, for the anti-entropy audits:
        #: ``(time, kind, replica, detail)`` tuples
        self.corruptions: list[tuple] = []
        #: ``(time, mode, version)`` per refresh a skip/double fault
        #: actually corrupted (an armed fault fires on the next install)
        self.corrupted_applies: list[tuple[float, str, int]] = []

    # -- helpers -------------------------------------------------------------
    @property
    def detection_enabled(self) -> bool:
        """True when the cluster runs heartbeat failure detection — the
        injector then never tells anyone about a fault; the middleware has
        to notice on its own."""
        return self.cluster.config.heartbeat is not None

    def _check_replica(self, name: str) -> None:
        if name not in self.cluster.replicas:
            known = ", ".join(sorted(self.cluster.replicas))
            raise ValueError(f"unknown replica {name!r}; known replicas: {known}")

    # -- replica faults ------------------------------------------------------
    def crash_replica(self, name: str, exclude_from_membership: bool = True) -> None:
        """Crash one replica.

        With heartbeats enabled only the crash itself happens here; the
        balancer and certifier find out through missed heartbeats.  Without
        them, ``exclude_from_membership=False`` leaves the dead replica in
        the certifier's view — under EAGER, update transactions then block
        until the replica recovers, reproducing the eager approach's
        availability problem.
        """
        self._check_replica(name)
        if name in self.crashed_replicas:
            raise ValueError(f"replica {name!r} is already crashed")
        proxy = self.cluster.replicas[name]
        self.cluster.network.take_down(name)
        proxy.crash()
        if not self.detection_enabled:
            self.cluster.load_balancer.replica_down(name)
            if exclude_from_membership:
                self.cluster.certifier.remove_replica(name)
        self.crashed_replicas.add(name)

    def recover_replica(self, name: str) -> None:
        """Recover a crashed replica: rejoin and replay the certifier's log
        from the replica's durable version.

        The :class:`~repro.middleware.messages.RecoveryRequest` the replica
        sends re-admits it at the certifier; with heartbeats the balancer
        resumes routing on the first answered ping, otherwise the injector
        re-admits it directly.
        """
        self._check_replica(name)
        if name not in self.crashed_replicas:
            raise ValueError(f"replica {name!r} is not crashed")
        proxy = self.cluster.replicas[name]
        if not self.detection_enabled:
            self.cluster.certifier.add_replica(name, applied_version=proxy.engine.version)
        proxy.recover()
        if not self.detection_enabled:
            self.cluster.load_balancer.replica_up(name)
        self.crashed_replicas.discard(name)

    def surviving_replicas(self) -> list[str]:
        """Names of replicas currently up."""
        return [
            name
            for name in self.cluster.replica_names
            if name not in self.crashed_replicas
        ]

    # -- overload --------------------------------------------------------------
    def overload(self, name: str, requests: int = 50, read_only: bool = True) -> int:
        """Burst of synthetic client load straight at one replica proxy.

        The burst bypasses the load balancer's admission control — that is
        the point: it models a hot spot (or a misrouted flood) the balancer
        did not meter, and the safety audits must stay green while the
        replica sheds or absorbs it.  Calls are drawn from the cluster's own
        workload under a dedicated RNG stream (reproducible, and never
        perturbs client streams); with ``read_only`` (the default) only
        read-only templates are used, so the burst consumes replica CPU
        without touching certification or the commit history.  Responses go
        to the balancer, which drops them as unknown request ids.

        Returns the number of requests actually sent.
        """
        self._check_replica(name)
        if requests < 1:
            raise ValueError("requests must be >= 1")
        rng = self.cluster.rngs.stream("injector:overload")
        workload = self.cluster.workload
        catalog = workload.catalog()
        want_read_only = read_only and any(not t.is_update for t in catalog)
        session = f"overload-{name}"
        sent = 0
        while sent < requests:
            call = workload.next_call(session, rng)
            template = catalog.get(call.template)
            if want_read_only and (template is None or template.is_update):
                continue
            request = ClientRequest(
                request_id=next_request_id(),
                template=call.template,
                params=call.params,
                session_id=session,
                reply_to=self.cluster.load_balancer.name,
                submit_time=self.cluster.env.now,
            )
            self.cluster.network.send(
                self.cluster.load_balancer.name, name, RoutedRequest(request, 0)
            )
            sent += 1
        return sent

    # -- silent corruption (anti-entropy faults) -------------------------------
    def corrupt_row(self, name: str, table: str = None, key=None) -> tuple:
        """Bit rot: scramble one visible row image in place on one replica,
        beneath the incremental digest bookkeeping.

        With ``table``/``key`` unset, a target is drawn from the dedicated
        ``injector:corruption`` stream (reproducible; never perturbs client
        streams).  Only a *deep* scrub can see this fault.  Returns the
        ``(table, key)`` actually corrupted.
        """
        self._check_replica(name)
        if name in self.crashed_replicas:
            raise ValueError(f"replica {name!r} is crashed; corrupt a live one")
        db = self.cluster.replicas[name].engine.database
        rng = self.cluster.rngs.stream("injector:corruption")
        if table is None:
            candidates = [
                t for t in db.table_names
                if any(not d for _k, _v, _lcv, d in db.table(t).latest_states())
            ]
            if not candidates:
                raise ValueError(f"replica {name!r} holds no visible rows")
            table = rng.choice(sorted(candidates))
        if key is None:
            keys = [
                k for k, _v, _lcv, deleted in db.table(table).latest_states()
                if not deleted
            ]
            if not keys:
                raise ValueError(f"table {table!r} holds no visible rows")
            key = rng.choice(keys)
        if not corrupt_row_in_place(db, table, key):
            raise ValueError(f"no visible image at {table!r}:{key!r}")
        self.corruptions.append(
            (self.cluster.env.now, "corrupt_row", name, (table, key))
        )
        return table, key

    def _arm_refresh_fault(self, name: str, mode: str) -> None:
        self._check_replica(name)
        if name in self.crashed_replicas:
            raise ValueError(f"replica {name!r} is crashed; corrupt a live one")
        arm_refresh_fault(
            self.cluster.replicas[name].engine,
            mode,
            lambda version: self.corrupted_applies.append(
                (self.cluster.env.now, mode, version)
            ),
        )

    def skip_refresh(self, name: str) -> None:
        """Lost apply: the replica's next refresh advances its version
        bookkeeping but installs no rows — it silently believes it applied
        the writeset.  Detected by any scrub (the digests miss the ops)."""
        self._arm_refresh_fault(name, "skip")
        self.corruptions.append((self.cluster.env.now, "skip_refresh", name, None))

    def double_apply_refresh(self, name: str) -> None:
        """Non-idempotent double application: the replica's next refresh
        applies normally, then each written row's numeric deltas fold in a
        second time in place.  Only a *deep* scrub can see this fault (the
        incremental digest saw one clean apply)."""
        self._arm_refresh_fault(name, "double")
        self.corruptions.append(
            (self.cluster.env.now, "double_apply_refresh", name, None)
        )

    # -- link partitions -------------------------------------------------------
    def partition_link(self, sender: str, recipient: str, symmetric: bool = False) -> None:
        """Cut the directed link ``sender → recipient`` (both directions when
        ``symmetric``); in-flight messages on the link are lost."""
        self.cluster.network.partition_link(sender, recipient, symmetric=symmetric)

    def heal_link(self, sender: str, recipient: str, symmetric: bool = False) -> None:
        """Restore a previously cut link."""
        self.cluster.network.heal_link(sender, recipient, symmetric=symmetric)

    def heal_all_links(self) -> None:
        """Restore every cut link."""
        self.cluster.network.heal_all_links()

    # -- certifier faults ------------------------------------------------------
    def kill_certifier(self) -> Certifier:
        """Crash-stop the live certifier and let the cluster heal itself.

        Raises ``ValueError`` unless an unpromoted standby can succeed it:
        proxies vote the certifier suspected once their heartbeats
        time out, and the standby promotes itself on a majority.  Returns
        the killed certifier (for inspecting its final log).
        """
        if self.cluster.standby is None or self.cluster.standby.promoted:
            raise ValueError("no unpromoted standby to succeed the certifier")
        certifier = self.cluster.certifier
        self.cluster.network.take_down(certifier.name)
        certifier.halt()
        return certifier

    def failover_certifier(self) -> Certifier:
        """Manual, instantaneous failover: crash the certifier and promote a
        cold copy initialised through the public state-transfer API
        (:meth:`~repro.middleware.certifier.Certifier.snapshot_state` /
        ``restore_state`` plus a decision-log clone).

        This models an operator-driven switchover with perfect state
        transfer; :meth:`kill_certifier` plus a standby models the
        self-healing path with real detection and shipping delays.  Don't
        combine it with a configured standby — the standby would promote a
        second successor.
        """
        old = self.cluster.certifier
        self.cluster.network.take_down(old.name)
        old.halt()  # crash-stop: in-flight certifications decide nothing

        self._failover_count += 1
        new_name = f"certifier-standby-{self._failover_count}"
        successor = self.cluster._make_certifier(
            new_name,
            list(old.replica_names),
            log=old.log.clone(),
            epoch=old.epoch + 1,
            # The tracker has folded exactly the cloned log's decisions.
            digest_tracker=old.digest_tracker,
        )
        successor.restore_state(old.snapshot_state())

        for proxy in self.cluster.replicas.values():
            if proxy.monitor is not None:
                proxy.monitor.replace_target(proxy.certifier_name, new_name)
            proxy.certifier_name = new_name
            proxy.certifier_epoch = successor.epoch
            proxy.fail_pending_certifications("certifier failover")
        self.cluster.load_balancer.follow_certifier(new_name, successor.epoch)
        self.cluster.certifier = successor
        return successor
