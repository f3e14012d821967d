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
client.  It also keeps membership: down, quarantined and joining replicas
are not routed to.

Two opt-in subsystems are components it constructs only when configured
(``None`` otherwise; DESIGN.md D14): :class:`~.overload.AdmissionControl`
for ``overload`` settings and :class:`~.deadlines.RequestDeadlines` for
``request_deadline_ms``.
"""

from __future__ import annotations

from typing import Optional

from ..core.policy import resolve_policy
from ..core.versions import VersionTracker
from ..histories.records import RunHistory, TxnRecord
from ..metrics.tracing import TRACER
from ..sim.kernel import Environment
from ..sim.network import Mailbox, Network
from .deadlines import RequestDeadlines
from .heartbeat import HeartbeatMonitor, HeartbeatSettings
from .messages import (
    ClientRequest,
    ClientResponse,
    FateReply,
    HeartbeatAck,
    RoutedRequest,
    StandbyPromoted,
    TxnResponse,
)
from .overload import AdmissionControl, OverloadSettings

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

    def __init__(self, request, replica, read_only):
        #: the request as the client sent it (client-facing id, submit time)
        self.client_request = request
        #: the current attempt's request (fresh id per retry — a fenced id
        #: must never be re-certified)
        self.request = request
        self.replica = replica
        self.attempts = 1
        self.read_only = read_only
        #: an update whose fate is being resolved through the certifier
        self.fate_pending = False
        #: whether the replica's active count currently includes this entry
        self.counted = True
        # ``start_version`` and ``dispatch_time`` are set at every send.


class LoadBalancer:
    """Least-active routing, start-version tagging, response relay, membership."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        replica_names: list[str],
        level,
        templates: dict,
        name: str = "lb",
        history: Optional[RunHistory] = None,
        certifier_name: str = "certifier",
        heartbeat: Optional[HeartbeatSettings] = None,
        request_deadline_ms: Optional[float] = None,
        max_attempts: int = 3,
        overload: Optional[OverloadSettings] = None,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.env = env
        self.network = network
        self.name = name
        self.policy = resolve_policy(level)
        self.templates = templates
        self.tracker = VersionTracker()
        self.history = history
        #: where fate queries go; re-pointed by :meth:`follow_certifier`
        self.certifier_name = certifier_name
        self._certifier_epoch = 1
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
        # current-attempt request_id -> entry for in-flight requests.
        self._outstanding: dict[int, _Outstanding] = {}
        self.dispatched_count = 0
        self.relayed_count = 0
        self.rejected_count = 0
        #: client request ids dispatched so far, kept only when the network
        #: can deliver a message twice (the proxy's rule, DESIGN.md D22): a
        #: copy can arrive after its id has left ``_outstanding``
        self._dispatched_ids: Optional[set[int]] = (
            set() if network.duplicate_prob > 0 else None
        )
        #: duplicated client requests dropped instead of dispatched again
        self.duplicate_request_count = 0
        #: request ids fenced into a final abort — the nemesis audit checks
        #: none of them appears in the decision log
        self.fenced_request_ids: list[int] = []
        #: client request id -> every attempt id dispatched for it (only
        #: populated for retried requests); lets audits prove at most one
        #: attempt of a client request ever committed
        self.retry_lineage: dict[int, list[int]] = {}

        # Opt-in components: None means not constructed (not configured).
        self.admission: Optional[AdmissionControl] = (
            AdmissionControl(self, overload) if overload is not None else None
        )
        self.deadlines: Optional[RequestDeadlines] = (
            RequestDeadlines(self, request_deadline_ms, max_attempts)
            if request_deadline_ms is not None
            else None
        )
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
        in docs/OBSERVABILITY.md); an absent component reports zeros."""
        deadlines, admission = self.deadlines, self.admission
        return {
            "v_system": self.v_system,
            "outstanding": self.outstanding_count,
            **(deadlines.stats() if deadlines is not None else RequestDeadlines.IDLE_STATS),
            **(admission.stats() if admission is not None else AdmissionControl.IDLE_STATS),
            "rejected": self.rejected_count,
            "quarantines": self.quarantine_count,
            "dispatched": self.dispatched_count,
            "relayed": self.relayed_count,
            "duplicate_requests": self.duplicate_request_count,
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
            if self.deadlines is not None:
                self.deadlines.observe_fate(message)
        elif isinstance(message, HeartbeatAck):
            if self.monitor is not None:
                self.monitor.observe_ack(message)
        elif isinstance(message, StandbyPromoted):
            self.follow_certifier(message.certifier, message.epoch)
        else:
            raise TypeError(f"{self.name} got unexpected message {message!r}")

    def follow_certifier(self, name: str, epoch: int) -> None:
        """Send fate queries to the certifier of failover ``epoch`` from now
        on (a notice from an older epoch is ignored)."""
        if epoch > self._certifier_epoch:
            self._certifier_epoch = epoch
            self.certifier_name = name

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

    def _dispatch(self, request: ClientRequest) -> None:
        dispatched = self._dispatched_ids
        if dispatched is not None:
            if request.request_id in dispatched:
                # A network copy of a request already dispatched: running it
                # again would leak an active count and could execute it twice.
                self.duplicate_request_count += 1
                return
            dispatched.add(request.request_id)
        template = self._template_for(request.template)
        read_only = not template.is_update
        if TRACER.enabled:
            # The sampling decision for the whole transaction happens here,
            # at the one choke point every client request flows through.
            TRACER.sample(request.request_id)
        if self.admission is not None:
            self.admission.admit(request, read_only)
            return
        replica = self._pick_or_reject(request)
        if replica is not None:
            self._dispatch_now(request, replica, read_only)

    def _pick_or_reject(self, request: ClientRequest) -> Optional[str]:
        """The least-active routable replica, or None after answering the
        client.  A total outage is answered, not raised: the balancer must
        survive it to route again after recovery."""
        replica = self._pick_replica()
        if replica is None:
            self.rejected_count += 1
            self._respond_failure(request, "no replicas available", "")
        return replica

    def _dispatch_now(self, request: ClientRequest, replica: str,
                      read_only: bool) -> None:
        self._send(_Outstanding(request, replica, read_only))

    def _send(self, entry: _Outstanding) -> None:
        """Tag, record, count and send one attempt (first dispatch or
        retry), then arm its deadline."""
        request = entry.request
        request_id = request.request_id
        replica = entry.replica
        entry.start_version = start_version = self._start_version(request)
        entry.dispatch_time = self.env.now
        self._outstanding[request_id] = entry
        self._active_count[replica] += 1
        if entry.attempts == 1:
            self.dispatched_count += 1
            if TRACER.enabled and TRACER.is_sampled(request_id):
                TRACER.span_since(
                    request_id, "lb.queue", self.name, self.env.now,
                    attrs={"replica": replica},
                )
                TRACER.instant(
                    "lb.dispatch", self.name, self.env.now,
                    request_id=request_id,
                    attrs={"replica": replica, "start_version": start_version},
                )
        self.network.send(self.name, replica, RoutedRequest(request, start_version))
        if self.deadlines is not None:
            self.deadlines.arm(request_id, entry.attempts)

    def _pick_replica(self, exclude: frozenset = frozenset()) -> Optional[str]:
        """The routable replica with the fewest active transactions, ties
        broken by name — "the replica with the least number of active
        transactions".  Returns None when no replica is available.
        """
        candidates = self._routable
        if exclude:
            # Fall back to the excluded set rather than fail — but never to a
            # quarantined replica: wrong data is worse than no answer.
            candidates = [r for r in candidates if r not in exclude] or candidates
        if not candidates:
            return None
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

    def _start_version(self, request: ClientRequest) -> int:
        """The consistency tag: the minimum version the replica must reach.

        The policy decides; the balancer supplies its soft state — the
        version tracker, plus the transaction's table-set looked up in the
        catalog by the request's transaction identifier (template name),
        exactly as the paper's balancer queries its table-set dictionary.
        """
        return self.policy.start_version(
            self.tracker,
            table_set=self.templates[request.template].table_set,
            session_id=request.session_id,
        )

    def _release_slot(self, entry: _Outstanding) -> None:
        if entry.counted:
            entry.counted = False
            if self._active_count.get(entry.replica, 0) > 0:
                self._active_count[entry.replica] -= 1
            if self.admission is not None:
                self.admission.pump(entry.replica)

    # -- response path ---------------------------------------------------------
    def _relay(self, response: TxnResponse) -> None:
        entry = self._outstanding.pop(response.request_id, None)
        if entry is None:
            return  # late response for a request already answered (crash path)
        if self.admission is not None:
            # Before the release: releasing pumps, and the pump's shedding
            # estimate must already include this response.
            self.admission.observe(self.env.now - entry.dispatch_time)
        self._release_slot(entry)
        client_request = entry.client_request

        if response.committed:
            self.tracker.observe_commit(
                commit_version=response.commit_version,
                updated_tables=response.updated_tables,
                session_id=response.session_id,
                replica_version=response.replica_version,
            )
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

    def _fail(self, request_id: int, entry: _Outstanding, reason: str) -> None:
        """Give up on an in-flight request: forget it, answer the client."""
        del self._outstanding[request_id]
        self._respond_failure(entry.client_request, reason, entry.replica)

    def _respond_failure(self, request: ClientRequest, reason: str,
                         replica: str, **overloaded) -> None:
        """Answer ``request`` as failed (``overloaded`` holds a shed's
        ``overloaded`` and ``retry_after_ms``)."""
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
                **overloaded,
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
        elsewhere, then re-route / fate-resolve its in-flight ones (shared
        by the down, joining and quarantine paths)."""
        if self.admission is not None:
            self.admission.evacuate(replica)
        affected = [
            (rid, entry)
            for rid, entry in self._outstanding.items()
            if entry.replica == replica and not entry.fate_pending
        ]
        for request_id, entry in affected:
            self._release_slot(entry)
            if self.deadlines is not None:
                self.deadlines.expire(request_id, entry, timeout_why)
            else:
                self._fail(request_id, entry, failure_why)

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
        if self.admission is not None:
            self.admission.pump(replica)

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
        if self.admission is not None:
            self.admission.pump(replica)
