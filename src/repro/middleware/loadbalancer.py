"""The load balancer (Section IV of the paper).

The load balancer is the intermediary between clients and replicas.  Its
design is deliberately minimalistic: it holds only soft state — the number of
active transactions per replica (for least-loaded routing), the version
tracker (``V_system``, per-table ``V_t``, per-session versions) and the
transaction-identifier → table-set catalog that SC-FINE consults.

On every client request it computes the **start version** for the configured
consistency level, tags the request with it and dispatches it to the replica
with the fewest active transactions.  On every replica response it updates
the version tracker from the proxy's tags and relays the outcome to the
client.

Self-healing extensions (opt-in; see ``docs/PROTOCOL.md``):

* **failure detection** — a :class:`~.heartbeat.HeartbeatMonitor` over the
  replicas routes around a suspected replica and resumes when it answers
  again, replacing the oracle calls the fault injector used to make;
* **request deadlines** — with ``request_deadline_ms`` set, every dispatch
  arms a timer.  A timed-out *read-only* transaction is re-routed to another
  live replica (reads are idempotent).  A timed-out *update* is never
  blindly retried: its fate is resolved through the certifier's decision log
  (:class:`~.messages.FateQuery`) — a logged commit is acknowledged as such,
  an unlogged one is fenced into a final abort and only then retried under a
  fresh request id.  This is what makes "an acknowledged commit is never
  doubled and never lost" hold under crashes and partitions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Optional

from ..core.partition import PartitionMap
from ..core.policy import resolve_policy
from ..core.versions import VersionTracker
from ..histories.records import RunHistory, TxnRecord
from ..metrics.tracing import TRACER
from ..sim.kernel import Environment, Event
from ..sim.network import Mailbox, Network
from .heartbeat import HeartbeatMonitor, HeartbeatSettings
from .messages import (
    ClientRequest,
    ClientResponse,
    FateQuery,
    FateReply,
    HeartbeatAck,
    RoutedRequest,
    StandbyPromoted,
    TxnResponse,
    next_request_id,
)
from .overload import OverloadSettings

__all__ = ["LoadBalancer"]


class _Outstanding:
    """Bookkeeping for one client request across its dispatch attempts."""

    __slots__ = (
        "client_request",
        "request",
        "replica",
        "attempts",
        "start_version",
        "read_only",
        "fate_pending",
        "counted",
        "dispatch_time",
    )

    def __init__(self, client_request, request, replica, start_version, read_only):
        #: the request as the client sent it (client-facing id, submit time)
        self.client_request = client_request
        #: the current attempt's request (fresh id per retry — a fenced id
        #: must never be re-certified)
        self.request = request
        self.replica = replica
        self.attempts = 1
        self.start_version = start_version
        self.read_only = read_only
        #: an update whose fate is being resolved through the certifier
        self.fate_pending = False
        #: whether the replica's active count currently includes this entry
        self.counted = True
        #: when the current attempt was sent (feeds the admission-control
        #: service-time estimate)
        self.dispatch_time = 0.0


class LoadBalancer:
    """Routing, version tagging, response relaying — and, when enabled,
    deadline-driven retry and fate resolution."""

    #: supported routing policies
    ROUTING_POLICIES = (
        "least-active",
        "round-robin",
        "random",
        "partition-affinity",
    )

    def __init__(
        self,
        env: Environment,
        network: Network,
        replica_names: list[str],
        level,
        templates: dict,
        name: str = "lb",
        history: Optional[RunHistory] = None,
        routing: str = "least-active",
        rng=None,
        freshness_bound: Optional[int] = None,
        certifier_name: str = "certifier",
        heartbeat: Optional[HeartbeatSettings] = None,
        request_deadline_ms: Optional[float] = None,
        max_attempts: int = 3,
        fate_retry_ms: float = 25.0,
        max_fate_attempts: int = 40,
        overload: Optional[OverloadSettings] = None,
        partition_map: Optional[PartitionMap] = None,
    ):
        if routing not in self.ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {routing!r}; "
                f"expected one of {self.ROUTING_POLICIES}"
            )
        if routing == "random" and rng is None:
            raise ValueError("random routing requires an rng")
        if routing == "partition-affinity" and (
            partition_map is None or partition_map.is_trivial
        ):
            raise ValueError(
                "partition-affinity routing requires a partition map with "
                "num_partitions > 1"
            )
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.env = env
        self.network = network
        self.name = name
        self.policy = resolve_policy(level, freshness_bound=freshness_bound)
        self.templates = templates
        #: table-group partitioning (None = one partition, scalar versions)
        self.partition_map = partition_map
        self.tracker = VersionTracker(partition_map=partition_map)
        #: template name -> partitions its table-set touches (cached)
        self._template_partitions: dict[str, tuple] = {}
        self.history = history
        self.routing = routing
        self.rng = rng
        #: staleness allowance (versions) for the RELAXED level
        self.freshness_bound = freshness_bound
        self.certifier_name = certifier_name
        self.request_deadline_ms = request_deadline_ms
        self.max_attempts = max_attempts
        self.fate_retry_ms = fate_retry_ms
        self.max_fate_attempts = max_fate_attempts
        self.mailbox: Mailbox = network.register(name, self._handle)

        self._replicas = list(replica_names)
        self._up = set(replica_names)
        #: replicas whose state diverged (scrubber verdict): alive and still
        #: applying refreshes, but never routed to until repaired and
        #: re-verified.  Distinct from down — a quarantined replica answers
        #: heartbeats, so suspicion-based recovery must not re-admit it.
        self._quarantined: set[str] = set()
        self.quarantine_count = 0
        #: replicas admitted in the ``joining`` lifecycle state (bootstrap
        #: state transfer in progress): known to the balancer but never
        #: routed to until the coordinator transitions them to ``live``
        self._joining: set[str] = set()
        #: ``_replicas`` minus down, quarantined and joining ones, in order
        #: (derived: see :meth:`_rebuild_routable`)
        self._routable = list(replica_names)
        #: joining → live transitions completed
        self.joins_completed = 0
        self._active_count: dict[str, int] = {r: 0 for r in replica_names}
        self._round_robin_next = 0
        # current-attempt request_id -> entry for in-flight requests.
        self._outstanding: dict[int, _Outstanding] = {}
        self._fate_waiters: dict[int, Event] = {}
        self._certifier_epoch = 1
        self.dispatched_count = 0
        self.relayed_count = 0
        #: dispatches whose template touches exactly one partition
        self.single_partition_dispatched = 0
        #: dispatches whose template spans partitions
        self.cross_partition_dispatched = 0
        # Self-healing counters (all zero when the features are off).
        self.timed_out_count = 0
        self.rerouted_reads = 0
        self.retried_updates = 0
        self.fate_commits = 0
        self.fate_aborts = 0
        self.unresolved_count = 0
        self.rejected_count = 0
        #: request ids fenced into a final abort — the nemesis audit checks
        #: none of them appears in the decision log
        self.fenced_request_ids: list[int] = []
        #: client request id -> every attempt id dispatched for it (only
        #: populated for retried requests); lets audits prove at most one
        #: attempt of a client request ever committed
        self.retry_lineage: dict[int, list[int]] = {}

        # Overload protection (inert when ``overload`` is None).
        self.overload = overload
        #: per-replica bounded pending queues; entries are
        #: ``(request, read_only)``
        self._pending: dict[str, deque] = {r: deque() for r in replica_names}
        #: fast-rejects because the chosen replica's pending queue was full
        self.shed_count = 0
        #: sheds because the request could no longer meet its deadline
        self.deadline_shed_count = 0
        #: read-only requests served at the valve's degraded policy
        self.degraded_count = 0
        #: True while the degradation valve is open
        self.valve_open = False
        #: valve transitions: ``(virtual_time, "open"/"close", v_system)``
        self.valve_events: list[tuple[float, str, int]] = []
        self._valve_policy = (
            resolve_policy(overload.valve_policy, freshness_bound=freshness_bound)
            if overload is not None and overload.valve_policy is not None
            else None
        )
        #: EWMA of observed dispatch→response time (the shedding estimate)
        self._service_ewma_ms: Optional[float] = None

        self.monitor: Optional[HeartbeatMonitor] = None
        if heartbeat is not None:
            self.monitor = HeartbeatMonitor(
                env,
                network,
                owner=name,
                targets=list(replica_names),
                settings=heartbeat,
                on_suspect=self.replica_down,
                on_restore=lambda replica, _ack: self.replica_up(replica),
            )


    # -- inspection ----------------------------------------------------------
    @property
    def v_system(self) -> int:
        """The balancer's view of the latest acknowledged commit version."""
        return self.tracker.v_system

    def active_transactions(self, replica: str) -> int:
        """Current in-flight transactions routed to ``replica``."""
        return self._active_count.get(replica, 0)

    @property
    def outstanding_count(self) -> int:
        return len(self._outstanding)

    def stats(self) -> dict:
        """This balancer's ``balancer.*`` metrics subtree (names cataloged
        in docs/OBSERVABILITY.md)."""
        return {
            "v_system": self.v_system,
            "outstanding": self.outstanding_count,
            "timed_out": self.timed_out_count,
            "rerouted_reads": self.rerouted_reads,
            "retried_updates": self.retried_updates,
            "fate_commits": self.fate_commits,
            "fate_aborts": self.fate_aborts,
            "shed": self.shed_count,
            "deadline_shed": self.deadline_shed_count,
            "degraded": self.degraded_count,
            "valve_open": self.valve_open,
            "unresolved": self.unresolved_count,
            "rejected": self.rejected_count,
            "quarantines": self.quarantine_count,
            "dispatched": self.dispatched_count,
            "relayed": self.relayed_count,
            "single_partition_dispatched": self.single_partition_dispatched,
            "cross_partition_dispatched": self.cross_partition_dispatched,
            "num_partitions": (
                self.partition_map.num_partitions
                if self.partition_map is not None
                else 1
            ),
            "partition_versions": self.tracker.partition_versions(),
            "pending_depth": self.pending_depth(),
            "active": dict(self._active_count),
            "joining": sorted(self._joining),
            "joins_completed": self.joins_completed,
        }

    # -- message dispatch ------------------------------------------------------
    def _handle(self, message) -> None:
        if isinstance(message, ClientRequest):
            self._dispatch(message)
        elif isinstance(message, TxnResponse):
            self._relay(message)
        elif isinstance(message, FateReply):
            waiter = self._fate_waiters.pop(message.request_id, None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(message)
        elif isinstance(message, HeartbeatAck):
            if self.monitor is not None:
                self.monitor.observe_ack(message)
        elif isinstance(message, StandbyPromoted):
            if message.epoch > self._certifier_epoch:
                self._certifier_epoch = message.epoch
                self.certifier_name = message.certifier
        else:
            raise TypeError(f"{self.name} got unexpected message {message!r}")

    # -- request path ---------------------------------------------------------
    def _template_for(self, name: str):
        """The registered template behind a transaction identifier.

        Raises :class:`ValueError` naming the known templates for an unknown
        identifier — an unknown name used to fall back to "update touching
        all tables", silently serializing the request behind every commit.
        """
        try:
            return self.templates[name]
        except KeyError:
            known = getattr(self.templates, "names", None)
            if known is None:
                known = tuple(self.templates)
            raise ValueError(
                f"unknown template {name!r}; known templates: "
                + ", ".join(sorted(known))
            ) from None

    def _partitions_for_template(self, name: str) -> Optional[tuple]:
        """Partitions the template's table-set touches (cached; None when
        no partition map is configured)."""
        if self.partition_map is None:
            return None
        cached = self._template_partitions.get(name)
        if cached is None:
            cached = self.partition_map.partitions_for(
                self._template_for(name).table_set
            )
            self._template_partitions[name] = cached
        return cached

    def _dispatch(self, request: ClientRequest) -> None:
        template = self._template_for(request.template)
        read_only = not template.is_update
        if TRACER.enabled:
            # The sampling decision for the whole transaction happens here,
            # at the one choke point every client request flows through.
            TRACER.sample(request.request_id)
        if self.overload is not None:
            self._admit(request, read_only)
            return
        replica = self._pick_replica(
            partitions=self._partitions_for_template(request.template)
        )
        if replica is None:
            # Every replica is down or suspected.  Answer instead of raising:
            # the balancer must survive a total outage to route again after
            # recovery.
            self.rejected_count += 1
            self._respond_failure(request, "no replicas available", "")
            return
        self._dispatch_now(request, replica, read_only)

    def _dispatch_now(self, request: ClientRequest, replica: str,
                      read_only: bool) -> None:
        partitions = self._partitions_for_template(request.template)
        if partitions is not None:
            if len(partitions) > 1:
                self.cross_partition_dispatched += 1
            else:
                self.single_partition_dispatched += 1
        start_version = self._start_version(request, read_only=read_only)
        entry = _Outstanding(request, request, replica, start_version, read_only)
        entry.dispatch_time = self.env.now
        self._outstanding[request.request_id] = entry
        self._active_count[replica] += 1
        self.dispatched_count += 1
        if TRACER.enabled and TRACER.is_sampled(request.request_id):
            TRACER.span_since(
                request.request_id, "lb.queue", self.name, self.env.now,
                attrs={"replica": replica},
            )
            TRACER.instant(
                "lb.dispatch", self.name, self.env.now,
                request_id=request.request_id,
                attrs={"replica": replica, "start_version": start_version},
            )
        self.network.send(self.name, replica, RoutedRequest(request, start_version))
        if self.request_deadline_ms is not None:
            self._arm_deadline(request.request_id, 1)

    # -- admission control (overload protection) -----------------------------
    def _admit(self, request: ClientRequest, read_only: bool) -> None:
        """Admission control: dispatch within the MPL cap, queue within the
        queue bound, fast-reject (or deadline-shed) beyond it."""
        settings = self.overload
        replica = self._pick_replica(
            partitions=self._partitions_for_template(request.template)
        )
        if replica is None:
            self.rejected_count += 1
            self._respond_failure(request, "no replicas available", "")
            return
        if self._active_count[replica] < settings.mpl_cap:
            self._dispatch_now(request, replica, read_only)
            return
        queue = self._pending[replica]
        if len(queue) >= settings.queue_depth:
            self._shed(request, "admission queue full")
            return
        if settings.shed_deadline_ms is not None:
            # Estimated start time given the queue ahead of us: each MPL
            # slot turns over once per observed service time.
            wait = (len(queue) + 1) * self._service_estimate_ms() / settings.mpl_cap
            if self.env.now + wait > request.submit_time + settings.shed_deadline_ms:
                self._shed(request, "deadline unreachable at current depth",
                           deadline=True)
                return
        if TRACER.enabled and TRACER.is_sampled(request.request_id):
            # Admission queueing: the interval closes at dispatch (or shed).
            TRACER.mark(request.request_id, "lb.queue", self.env.now)
        queue.append((request, read_only))
        self._update_valve()

    def _shed(self, request: ClientRequest, why: str, deadline: bool = False) -> None:
        """Refuse a request before it starts: an ``Overloaded`` fast-reject
        with a retry-after hint.  The shed is accounted as a network drop
        under "overload-shed" so audits see one drop breakdown."""
        if deadline:
            self.deadline_shed_count += 1
        else:
            self.shed_count += 1
        if TRACER.enabled and TRACER.is_sampled(request.request_id):
            TRACER.span_since(
                request.request_id, "lb.queue", self.name, self.env.now,
                attrs={"shed": True},
            )
            TRACER.instant(
                "lb.shed", self.name, self.env.now,
                request_id=request.request_id,
                attrs={"why": why, "deadline": deadline},
            )
        self.network.record_drop("overload-shed")
        self.network.send(
            self.name,
            request.reply_to,
            ClientResponse(
                request_id=request.request_id,
                committed=False,
                commit_version=None,
                abort_reason=f"overloaded: {why}",
                replica="",
                stages=None,
                overloaded=True,
                retry_after_ms=self.overload.retry_after_ms,
            ),
        )

    def _service_estimate_ms(self) -> float:
        """EWMA of dispatch→response time (1 ms prior before any sample)."""
        return self._service_ewma_ms if self._service_ewma_ms is not None else 1.0

    def _pump(self, replica: str) -> None:
        """A slot freed up: admit pending requests, shedding the ones whose
        deadline passed while they queued (overload protection only)."""
        settings = self.overload
        queue = self._pending.get(replica)
        while (
            queue
            and replica in self._up
            and replica not in self._quarantined
            and replica not in self._joining
            and self._active_count.get(replica, 0) < settings.mpl_cap
        ):
            request, read_only = queue.popleft()
            if (
                settings.shed_deadline_ms is not None
                and self.env.now > request.submit_time + settings.shed_deadline_ms
            ):
                self._shed(request, "deadline exceeded while queued", deadline=True)
                continue
            self._dispatch_now(request, replica, read_only)
        self._update_valve()

    def pending_depth(self, replica: Optional[str] = None) -> int:
        """Requests waiting in admission queues (one replica's, or all)."""
        if replica is not None:
            return len(self._pending.get(replica, ()))
        return sum(len(queue) for queue in self._pending.values())

    def _update_valve(self) -> None:
        """Hysteresis valve over the total pending depth: open at
        ``valve_high``, close at ``valve_low``."""
        if self._valve_policy is None:
            return
        depth = self.pending_depth()
        if not self.valve_open and depth >= self.overload.valve_high:
            self.valve_open = True
            self.valve_events.append((self.env.now, "open", self.tracker.v_system))
        elif self.valve_open and depth <= self.overload.valve_low:
            self.valve_open = False
            self.valve_events.append((self.env.now, "close", self.tracker.v_system))

    def _pick_replica(
        self,
        exclude: frozenset = frozenset(),
        partitions: Optional[tuple] = None,
    ) -> Optional[str]:
        """Route per the configured policy over the replicas currently up.

        The paper's balancer uses least-active ("the replica with the least
        number of active transactions"); round-robin and random exist for
        the routing ablation.  Partition-affinity pins a single-partition
        transaction to its partition's home replica (``p mod N``) so one
        replica's working set stays within one shard's tables; cross-
        partition and unknown-shape requests fall back to least-active.
        Returns None when no replica is available.
        """
        candidates = self._routable
        if exclude:
            # Fall back to the excluded set rather than fail — but never to a
            # quarantined replica: wrong data is worse than no answer.
            candidates = [r for r in candidates if r not in exclude] or candidates
        if not candidates:
            return None
        if self.routing == "round-robin":
            pick = candidates[self._round_robin_next % len(candidates)]
            self._round_robin_next += 1
            return pick
        if self.routing == "random":
            return self.rng.choice(candidates)
        if (
            self.routing == "partition-affinity"
            and partitions is not None
            and len(partitions) == 1
        ):
            home = self._replicas[partitions[0] % len(self._replicas)]
            if home in candidates:
                return home
        # The minimum (active, name) in one pass, without building the keys.
        active = self._active_count
        pick = candidates[0]
        low = active[pick]
        for replica in candidates:
            count = active[replica]
            if count < low or (count == low and replica < pick):
                pick, low = replica, count
        return pick

    def _rebuild_routable(self) -> None:
        """Recompute :attr:`_routable` after a membership transition — before
        the transition evacuates or pumps, because both route."""
        self._routable = [
            r
            for r in self._replicas
            if r in self._up
            and r not in self._quarantined
            and r not in self._joining
        ]

    def _start_version(self, request: ClientRequest, read_only: bool = False) -> int:
        """The consistency tag: the minimum version the replica must reach.

        The policy decides; the balancer supplies its soft state — the
        version tracker, plus the transaction's table-set looked up in the
        catalog by the request's transaction identifier (template name),
        exactly as the paper's balancer queries its table-set dictionary.

        While the degradation valve is open, a *degradable* read-only
        request is tagged by the weaker valve policy instead — the graceful
        alternative to queueing or shedding it.
        """
        table_set = self.templates[request.template].table_set
        if (
            self._valve_policy is not None
            and self.valve_open
            and read_only
            and request.degradable
        ):
            self.degraded_count += 1
            return self._valve_policy.start_version(
                self.tracker,
                table_set=table_set,
                session_id=request.session_id,
            )
        return self.policy.start_version(
            self.tracker,
            table_set=table_set,
            session_id=request.session_id,
        )

    # -- deadlines and retry ---------------------------------------------------
    def _arm_deadline(self, request_id: int, attempts: int) -> None:
        timer = self.env.timeout(self.request_deadline_ms)

        def _fire(_event, request_id=request_id, attempts=attempts):
            entry = self._outstanding.get(request_id)
            if entry is None or entry.attempts != attempts or entry.fate_pending:
                return  # answered, re-dispatched, or already being resolved
            self.timed_out_count += 1
            self._release_slot(entry)
            self._handle_timeout(request_id, entry, "deadline exceeded")

        timer.callbacks.append(_fire)

    def _release_slot(self, entry: _Outstanding) -> None:
        if entry.counted:
            entry.counted = False
            if self._active_count.get(entry.replica, 0) > 0:
                self._active_count[entry.replica] -= 1
            if self.overload is not None:
                self._pump(entry.replica)

    def _handle_timeout(self, request_id: int, entry: _Outstanding, why: str) -> None:
        """A dispatch attempt is overdue (deadline or replica suspicion)."""
        if entry.read_only:
            # Reads are idempotent: just try another replica.
            if entry.attempts < self.max_attempts:
                self.rerouted_reads += 1
                self._redispatch(request_id, entry, exclude=frozenset({entry.replica}))
            else:
                del self._outstanding[request_id]
                self._respond_failure(
                    entry.client_request,
                    f"read-only transaction failed: {why} "
                    f"({entry.attempts} attempts)",
                    entry.replica,
                )
            return
        # Updates must never be blindly retried — resolve the fate first.
        entry.fate_pending = True
        self.env.process(
            self._resolve_fate(request_id, entry),
            name=f"{self.name}-fate-{request_id}",
        )

    def _redispatch(self, old_request_id: int, entry: _Outstanding,
                    exclude: frozenset = frozenset()) -> None:
        """Retry under a fresh request id (old ids may be fenced) with a
        recomputed consistency tag."""
        del self._outstanding[old_request_id]
        replica = self._pick_replica(
            exclude=exclude,
            partitions=self._partitions_for_template(entry.request.template),
        )
        if replica is None:
            self.rejected_count += 1
            self._respond_failure(
                entry.client_request, "no replicas available for retry", entry.replica
            )
            return
        lineage = self.retry_lineage.setdefault(
            entry.client_request.request_id, [entry.request.request_id]
        )
        request = replace(entry.request, request_id=next_request_id())
        lineage.append(request.request_id)
        if TRACER.enabled:
            TRACER.alias(old_request_id, request.request_id)
            if TRACER.is_sampled(request.request_id):
                TRACER.instant(
                    "lb.retry", self.name, self.env.now,
                    request_id=request.request_id,
                    attrs={
                        "previous_request_id": old_request_id,
                        "attempt": entry.attempts + 1,
                    },
                )
        entry.request = request
        entry.replica = replica
        entry.attempts += 1
        entry.start_version = self._start_version(request, read_only=entry.read_only)
        entry.fate_pending = False
        entry.counted = True
        entry.dispatch_time = self.env.now
        self._outstanding[request.request_id] = entry
        self._active_count[replica] += 1
        self.network.send(self.name, replica, RoutedRequest(request, entry.start_version))
        if self.request_deadline_ms is not None:
            self._arm_deadline(request.request_id, entry.attempts)

    # -- fate resolution -------------------------------------------------------
    def _resolve_fate(self, request_id: int, entry: _Outstanding):
        """Ask the certifier what happened to a timed-out update, retrying
        until answered (the certifier itself may be failing over)."""
        for _ in range(self.max_fate_attempts):
            if self._outstanding.get(request_id) is not entry:
                return  # the real response arrived while we were asking
            waiter = Event(self.env)
            self._fate_waiters[request_id] = waiter
            self.network.send(
                self.name, self.certifier_name, FateQuery(request_id, self.name)
            )
            timer = self.env.timeout(self.fate_retry_ms)
            yield self.env.any_of([waiter, timer])
            self._fate_waiters.pop(request_id, None)
            if waiter.triggered:
                self._conclude_fate(request_id, entry, waiter.value)
                return
        if self._outstanding.get(request_id) is entry:
            del self._outstanding[request_id]
            self.unresolved_count += 1
            self._respond_failure(
                entry.client_request,
                "outcome unknown: certifier unreachable",
                entry.replica,
            )

    def _conclude_fate(self, request_id: int, entry: _Outstanding,
                       reply: FateReply) -> None:
        if self._outstanding.get(request_id) is not entry:
            return
        if reply.committed:
            # The decision log holds the commit; acknowledge it.  The
            # synthetic response tags the dispatch start version as the
            # snapshot (a valid lower bound) and the commit version as the
            # replica version the tracker advances to.
            self.fate_commits += 1
            tables = self.templates[entry.request.template].table_set
            self._relay(
                TxnResponse(
                    request_id=request_id,
                    session_id=entry.request.session_id,
                    reply_to=entry.request.reply_to,
                    replica=entry.replica,
                    committed=True,
                    commit_version=reply.commit_version,
                    abort_reason=None,
                    replica_version=reply.commit_version,
                    updated_tables=frozenset(tables),
                    stages=None,
                    snapshot_version=entry.start_version,
                )
            )
            return
        # Fenced: the abort is final, so retrying (with a fresh id) is safe.
        self.fate_aborts += 1
        self.fenced_request_ids.append(request_id)
        if entry.attempts < self.max_attempts:
            self.retried_updates += 1
            self._redispatch(request_id, entry, exclude=frozenset({entry.replica}))
        else:
            del self._outstanding[request_id]
            self._respond_failure(
                entry.client_request,
                f"update timed out; fate resolved as aborted "
                f"({entry.attempts} attempts)",
                entry.replica,
            )

    # -- response path ---------------------------------------------------------
    def _relay(self, response: TxnResponse) -> None:
        entry = self._outstanding.pop(response.request_id, None)
        if entry is None:
            return  # late response for a request already answered (crash path)
        if self.overload is not None and entry.dispatch_time:
            observed = self.env.now - entry.dispatch_time
            self._service_ewma_ms = (
                observed
                if self._service_ewma_ms is None
                else 0.8 * self._service_ewma_ms + 0.2 * observed
            )
        self._release_slot(entry)
        client_request = entry.client_request

        self.policy.observe_response(self.tracker, response)
        self.relayed_count += 1
        if TRACER.enabled and TRACER.is_sampled(response.request_id):
            TRACER.instant(
                "lb.relay", self.name, self.env.now,
                request_id=response.request_id,
                commit_version=response.commit_version,
                attrs={
                    "committed": response.committed,
                    "client_request_id": client_request.request_id,
                },
            )
        self.network.send(
            self.name,
            client_request.reply_to,
            ClientResponse(
                request_id=client_request.request_id,
                committed=response.committed,
                commit_version=response.commit_version,
                abort_reason=response.abort_reason,
                replica=response.replica,
                stages=response.stages,
                snapshot_version=response.snapshot_version,
                result=response.result,
            ),
        )
        if self.history is not None:
            accessed = self.templates[client_request.template].table_set
            self.history.add(
                TxnRecord(
                    request_id=client_request.request_id,
                    template=client_request.template,
                    session_id=client_request.session_id,
                    replica=response.replica,
                    submit_time=client_request.submit_time,
                    ack_time=self.env.now,
                    committed=response.committed,
                    snapshot_version=response.snapshot_version,
                    commit_version=response.commit_version,
                    accessed_tables=frozenset(accessed),
                    updated_tables=response.updated_tables,
                    abort_reason=response.abort_reason,
                )
            )

    def _respond_failure(self, request: ClientRequest, reason: str,
                         replica: str) -> None:
        self.network.send(
            self.name,
            request.reply_to,
            ClientResponse(
                request_id=request.request_id,
                committed=False,
                commit_version=None,
                abort_reason=reason,
                replica=replica,
                stages=None,
            ),
        )

    # -- fault handling -----------------------------------------------------
    @property
    def up_replicas(self) -> frozenset:
        """Replicas the balancer currently considers routable."""
        return frozenset(self._up)

    def replica_down(self, replica: str) -> None:
        """Stop routing to a failed/suspected replica.

        With deadlines enabled, its in-flight requests go through the same
        re-route / fate-resolution machinery a timeout triggers.  Without
        them (the injector notifies us directly) they fail immediately; a
        request whose writeset was already certified may then still commit
        globally even though the client sees a failure — the inherent client
        uncertainty of the crash-recovery model; see DESIGN.md D5."""
        self._up.discard(replica)
        self._rebuild_routable()
        self._evacuate(replica, f"replica {replica} suspected",
                       f"replica {replica} failed")

    def _evacuate(self, replica: str, timeout_why: str, failure_why: str) -> None:
        """Drain a no-longer-routable replica: re-admit its queued requests
        elsewhere and re-route / fate-resolve its in-flight ones (shared by
        the down and quarantine paths)."""
        queue = self._pending.get(replica)
        if queue:
            # Re-admit the dead replica's queued (never dispatched) requests
            # elsewhere; they shed normally if everywhere else is full too.
            stranded = list(queue)
            queue.clear()
            for request, read_only in stranded:
                self._admit(request, read_only)
            self._update_valve()
        affected = [
            (rid, entry)
            for rid, entry in self._outstanding.items()
            if entry.replica == replica and not entry.fate_pending
        ]
        for request_id, entry in affected:
            self._release_slot(entry)
            if self.request_deadline_ms is not None:
                self._handle_timeout(request_id, entry, timeout_why)
            else:
                del self._outstanding[request_id]
                self._respond_failure(entry.client_request, failure_why, replica)

    def replica_up(self, replica: str) -> None:
        """Resume routing to a recovered replica."""
        if replica in self._replicas:
            self._up.add(replica)
            self._rebuild_routable()

    # -- replica lifecycle (bootstrap) ------------------------------------------
    @property
    def joining_replicas(self) -> frozenset:
        """Replicas in the ``joining``/``catching-up`` lifecycle state."""
        return frozenset(self._joining)

    def admit_joining(self, replica: str) -> None:
        """Admit a replica in the ``joining`` state: the balancer knows it
        (a brand-new node is registered) but never routes client traffic to
        it until :meth:`set_live`.  A rejoining node's queued and in-flight
        requests, if any, evacuate like a suspected replica's."""
        if replica not in self._replicas:
            self._replicas.append(replica)
            self._active_count[replica] = 0
            self._pending[replica] = deque()
        if replica in self._joining:
            return
        self._joining.add(replica)
        self._rebuild_routable()
        self._evacuate(replica, f"replica {replica} joining",
                       f"replica {replica} joining")

    def set_live(self, replica: str) -> None:
        """Transition a caught-up joiner to ``live``: it enters the routing
        set (and the failure detector's targets) from here on."""
        if replica not in self._joining:
            return
        self._joining.discard(replica)
        self._up.add(replica)
        self._rebuild_routable()
        self.joins_completed += 1
        if self.monitor is not None:
            self.monitor.add_target(replica)
        if self.overload is not None:
            self._pump(replica)

    # -- quarantine (anti-entropy) --------------------------------------------
    @property
    def quarantined_replicas(self) -> frozenset:
        return frozenset(self._quarantined)

    def quarantine_replica(self, replica: str) -> None:
        """Stop routing to a diverged replica (scrubber verdict).

        The replica stays in certifier membership and keeps applying
        refreshes — only client traffic is fenced off.  Its admission queue
        and in-flight requests are evacuated exactly like a suspected
        replica's: reads re-route, updates fate-resolve.
        """
        if replica in self._quarantined:
            return
        self._quarantined.add(replica)
        self._rebuild_routable()
        self.quarantine_count += 1
        self._evacuate(replica, f"replica {replica} quarantined",
                       f"replica {replica} quarantined")

    def unquarantine_replica(self, replica: str) -> None:
        """Re-admit a repaired replica whose digest re-verified clean."""
        if replica not in self._quarantined:
            return
        self._quarantined.discard(replica)
        self._rebuild_routable()
        if self.overload is not None:
            self._pump(replica)
