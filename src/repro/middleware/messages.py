"""Typed messages exchanged by the middleware components.

Clients talk to the load balancer; the load balancer talks to replica
proxies; proxies talk to the certifier.  Every message is a small frozen
dataclass so tests can pattern-match on traffic via network taps, and so
that a message the simulated network hands to many recipients cannot be
changed by one of them.
"""

from __future__ import annotations

import itertools
from dataclasses import MISSING, dataclass, fields
from typing import Any, Mapping, Optional

from ..storage.writeset import WriteSet

__all__ = [
    "next_request_id",
    "ClientRequest",
    "ClientResponse",
    "RoutedRequest",
    "TxnResponse",
    "CertifyRequest",
    "CertifyReply",
    "RefreshWriteset",
    "CommitApplied",
    "GlobalCommitNotice",
    "RecoveryRequest",
    "RecoveryReply",
    "HeartbeatPing",
    "HeartbeatAck",
    "FateQuery",
    "FateReply",
    "DecisionRecord",
    "DecisionAck",
    "CertifierSuspected",
    "StandbyPromoted",
    "DigestRequest",
    "DigestReply",
    "TableSyncRequest",
    "TableSyncReply",
    "RepairApply",
    "RepairAck",
    "CatchUpRequest",
    "CheckpointInstall",
    "CheckpointInstalled",
    "BootstrapRequired",
]

_request_ids = itertools.count(1)


def next_request_id() -> int:
    """Globally unique client-request identifier."""
    return next(_request_ids)


def _message(cls):
    """``@dataclass(frozen=True)`` whose ``__init__`` stores through the
    instance ``__dict__``.

    The generated ``__init__`` of a frozen dataclass pays one
    ``object.__setattr__`` call per field, and a transaction builds several
    messages.  Everything else is the frozen dataclass's: assignment raises
    ``FrozenInstanceError``; ``__eq__``, ``__repr__``, ``fields`` and
    ``replace`` work; the constructor has the same signature.  Defaults must
    be immutable constants (no ``default_factory``, no ``__post_init__``).

    Storing through ``self.__dict__`` materialises an instance dict, which
    costs memory for as long as the object lives: this suits transient
    messages, not records a run retains (those are slotted dataclasses,
    e.g. ``StageTimings``).
    """
    cls = dataclass(frozen=True)(cls)
    defaults = {
        f"_default_{f.name}": f.default for f in fields(cls) if f.default is not MISSING
    }
    params = ", ".join(
        f.name if f.default is MISSING else f"{f.name}=_default_{f.name}"
        for f in fields(cls)
    )
    stores = "; ".join(f"d[{f.name!r}] = {f.name}" for f in fields(cls))
    namespace: dict = {}
    exec(
        f"def __init__(self, {params}):\n    d = self.__dict__; {stores}",
        defaults,
        namespace,
    )
    cls.__init__ = namespace["__init__"]
    return cls


@_message
class ClientRequest:
    """Client → load balancer: run one transaction.

    ``template`` names a registered transaction template (the paper's
    *transaction identifier*, which SC-FINE uses to look up the table-set);
    ``params`` are the prepared-statement parameters; ``session_id``
    identifies the client's session; ``reply_to`` is the client's endpoint.
    ``degradable`` marks a read-only request the client is willing to have
    served at a weaker consistency level while the balancer's degradation
    valve is open (ignored for updates and when the valve is unconfigured).
    """

    request_id: int
    template: str
    params: Mapping[str, Any]
    session_id: str
    reply_to: str
    submit_time: float
    degradable: bool = False


@_message
class ClientResponse:
    """Load balancer → client: transaction outcome.

    ``overloaded`` marks a fast-reject by admission control: the request was
    shed before it started, and ``retry_after_ms`` hints when a retry has a
    chance of being admitted.
    """

    request_id: int
    committed: bool
    commit_version: Optional[int]
    abort_reason: Optional[str]
    replica: str
    stages: "Any"  # metrics.StageTimings; Any avoids a circular import
    snapshot_version: int = 0
    result: Any = None
    overloaded: bool = False
    retry_after_ms: Optional[float] = None


@_message
class RoutedRequest:
    """Load balancer → replica proxy: the request plus the consistency tag.

    ``start_version`` is the minimum ``V_local`` required before the
    transaction may begin (0 means start immediately).
    """

    request: ClientRequest
    start_version: int


@_message
class TxnResponse:
    """Replica proxy → load balancer: outcome plus version bookkeeping.

    ``replica_version`` is ``V_local`` after the transaction finished — the
    value the proxy "tags its response" with; ``updated_tables`` carries the
    writeset's table set so the balancer can maintain per-table versions.
    """

    request_id: int
    session_id: str
    reply_to: str
    replica: str
    committed: bool
    commit_version: Optional[int]
    abort_reason: Optional[str]
    replica_version: int
    updated_tables: frozenset[str]
    stages: "Any"
    snapshot_version: int = 0
    result: Any = None


@_message
class CertifyRequest:
    """Proxy → certifier: certify an update transaction's writeset.

    ``readset`` is present only in serializable certification mode: the set
    of (table, key) pairs the transaction read, validated against the
    writesets committed since its snapshot (backward validation turns GSI
    into one-copy serializability — Section IV notes TPC-W/TPC-C already
    run serializably under GSI, so this mode is an optional extension).
    """

    txn_id: int
    origin: str
    snapshot_version: int
    writeset: WriteSet
    request_id: int
    readset: Optional[frozenset] = None


@_message
class CertifyReply:
    """Certifier → origin proxy: the decision.

    ``commit_version`` is set iff ``certified``.  ``overloaded`` marks a
    backpressure reject: the certifier's inbound queue exceeded its bound
    and the request was refused *without* being certified — no decision was
    made, so the proxy aborts the transaction locally and the client may
    retry.
    """

    txn_id: int
    request_id: int
    certified: bool
    commit_version: Optional[int]
    conflict_with: Optional[int] = None  # version of the conflicting commit
    overloaded: bool = False
    #: predecessor vector ``((partition, prev_version), ...)`` — for each
    #: partition the writeset touches, the version of that partition's
    #: previous commit.  The origin proxy's sync stage waits for exactly
    #: these predecessors; None means the full prefix ``1..version-1``.
    prev_versions: Optional[tuple] = None


@_message
class RefreshWriteset:
    """Certifier → non-origin proxies: a committed transaction's writeset to
    be applied locally as a refresh transaction."""

    commit_version: int
    writeset: WriteSet
    origin: str
    txn_id: int
    #: predecessor vector (same shape as :attr:`CertifyReply.prev_versions`).
    #: A receiving proxy may apply this refresh as soon as every
    #: predecessor has been applied, even if earlier global versions of
    #: *other* partitions are missing; None means the full prefix.
    prev_versions: Optional[tuple] = None


@_message
class CommitApplied:
    """Proxy → certifier: this replica has committed version
    ``commit_version`` (local or refresh).  Drives the EAGER global-commit
    counters and, in any mode, the certifier's replica-progress tracking."""

    replica: str
    commit_version: int


@_message
class GlobalCommitNotice:
    """Certifier → origin proxy (EAGER only): every replica has committed
    ``commit_version``; the client may now be acknowledged."""

    commit_version: int
    request_id: int


@_message
class RecoveryRequest:
    """Recovering proxy → certifier: replay all decisions after
    ``after_version``."""

    replica: str
    after_version: int


@_message
class RecoveryReply:
    """Certifier → recovering proxy: the missed writesets, ascending.

    ``bootstrap_required=True`` is the machine-readable refusal: the replica
    asked for a replay starting below the truncated decision log's floor, so
    incremental catch-up is impossible.  ``first_replayable`` is the lowest
    version the certifier can still replay — anything older must come from a
    checkpoint (state transfer) instead.
    """

    replica: str
    entries: tuple  # tuple[tuple[int, WriteSet], ...]
    #: per-entry predecessor vectors, aligned with ``entries``
    #: (``prevs[i]`` belongs to ``entries[i]``); None means every entry
    #: waits for the full prefix.
    prevs: Optional[tuple] = None
    bootstrap_required: bool = False
    first_replayable: int = 0


# ---------------------------------------------------------------------------
# Self-healing protocol (failure detection, fate resolution, failover)
# ---------------------------------------------------------------------------


@_message
class HeartbeatPing:
    """Monitor → monitored component: are you alive?

    ``payload`` carries monitor-specific piggyback state — the certifier
    puts its ``V_commit`` in pings to replicas so a replica that missed
    refresh writesets (link partition) can detect the gap and ask for a
    recovery replay.
    """

    sender: str
    seq: int
    payload: Any = None


@_message
class HeartbeatAck:
    """Monitored component → monitor: still alive.

    ``payload`` is responder state piggybacked on the ack — replicas report
    their durable version (the certifier re-admits them at it), the primary
    certifier ships a state snapshot to its standby.
    """

    sender: str
    seq: int
    payload: Any = None


@_message
class FateQuery:
    """Load balancer → certifier: what happened to update ``request_id``?

    Sent when an update transaction misses its deadline.  The certifier
    answers from its decision log; if it has no decision it *fences* the
    request id so a late certification cannot commit it afterwards — the
    reply is then a safe, final abort.
    """

    request_id: int
    reply_to: str


@_message
class FateReply:
    """Certifier → load balancer: the resolved fate of an update.

    ``committed`` with ``commit_version`` when the decision log holds the
    commit; otherwise the request is fenced/aborted and may be retried.
    """

    request_id: int
    committed: bool
    commit_version: Optional[int] = None


@_message
class DecisionRecord:
    """Primary certifier → standby: one appended decision-log entry
    (state-machine replication of the certifier)."""

    entry: Any  # durability.LogEntry; Any avoids a circular import


@_message
class DecisionAck:
    """Standby → primary certifier: the record is replicated; the decision
    may be released (semi-synchronous log shipping)."""

    commit_version: int


@_message
class CertifierSuspected:
    """Replica proxy → standby certifier: this proxy's heartbeats to the
    primary timed out (``retract=True`` withdraws the vote after the primary
    answers again).  The standby promotes itself on a majority of votes."""

    voter: str
    certifier: str
    retract: bool = False


# ---------------------------------------------------------------------------
# Anti-entropy protocol (scrub, peer row sync, online repair)
# ---------------------------------------------------------------------------


@_message
class DigestRequest:
    """Scrubber → replica proxy: report your per-table state digests.

    The replica answers at its *own* current ``V_local`` (no pinning round
    trip needed — the scrubber's expectation oracle can answer at any
    version).  ``deep=True`` asks for a full-scan recompute, which is what
    catches in-place corruption beneath the incremental bookkeeping.
    """

    reply_to: str
    round_id: int
    deep: bool = True


@_message
class DigestReply:
    """Replica proxy → scrubber: the digest vector, pinned to a version.

    ``aligned=False`` flags that the replica holds versions installed
    ahead of its watermark; its digests then include images the watermark
    cannot vouch for and the scrubber skips this reply rather than raise a
    false alarm.
    """

    replica: str
    round_id: int
    version: int
    digests: Mapping[str, int]
    aligned: bool = True


@_message
class TableSyncRequest:
    """Scrubber → healthy replica proxy: capture the latest row images of
    ``tables`` so ``target`` can be repaired from them."""

    reply_to: str
    target: str
    tables: tuple[str, ...]
    round_id: int


@_message
class TableSyncReply:
    """Healthy replica proxy → scrubber: the captured row images.

    ``rows`` maps table name to a tuple of ``(key, values, commit_version,
    deleted)`` entries (the shape of ``VersionedTable.latest_states``),
    captured atomically at the replica's ``version``.
    """

    replica: str
    target: str
    round_id: int
    version: int
    rows: Mapping[str, tuple]


@_message
class RepairApply:
    """Scrubber → quarantined replica proxy: adopt these row images.

    The replica replaces each named table's state with the peer images
    (captured at the peer's ``synced_version``) and rebuilds its digests;
    re-admission still waits for a clean scrub verification afterwards.
    """

    reply_to: str
    round_id: int
    synced_version: int
    rows: Mapping[str, tuple]


@_message
class RepairAck:
    """Repaired replica proxy → scrubber: the sync is installed.

    ``rows_repaired`` counts keys whose visible state actually differed —
    the magnitude of the divergence that was silently served until now.
    """

    replica: str
    round_id: int
    version: int
    rows_repaired: int


# ---------------------------------------------------------------------------
# Replica lifecycle protocol (bootstrap, catch-up, membership)
# ---------------------------------------------------------------------------


@_message
class CatchUpRequest:
    """Bootstrap coordinator → certifier, on a joiner's behalf: replay all
    decisions after ``after_version`` to ``replica`` *without* re-admitting
    it.  Unlike :class:`RecoveryRequest`, the joiner stays out of the
    membership set and the replication-horizon computation — a replica that
    is still catching up must never pin the horizon.
    """

    replica: str
    after_version: int


@_message
class CheckpointInstall:
    """Bootstrap coordinator → joining replica proxy: adopt this fuzzy
    checkpoint.

    ``rows`` has the shape of :attr:`TableSyncReply.rows` — per-table latest
    row images captured atomically at the donor's ``checkpoint_version``.
    The joiner replaces its table state, jumps its apply watermark to the
    checkpoint version, and replays only decisions above it.
    """

    reply_to: str
    round_id: int
    checkpoint_version: int
    rows: Mapping[str, tuple]


@_message
class CheckpointInstalled:
    """Joining replica proxy → bootstrap coordinator: the checkpoint is
    installed and the replica's version is now ``version``."""

    replica: str
    round_id: int
    version: int


@_message
class BootstrapRequired:
    """Replica proxy → bootstrap coordinator: my recovery replay was refused
    because the decision log no longer reaches back to my version (the
    certifier's refusal carried ``first_replayable``).  The coordinator
    responds by re-bootstrapping the replica from a checkpoint."""

    replica: str
    first_replayable: int


@_message
class StandbyPromoted:
    """New certifier → proxies, balancer, and the old primary: the standby
    has promoted itself as ``certifier`` with failover ``epoch``.  Receivers
    re-point, the old primary (if it ever hears it) halts."""

    certifier: str
    epoch: int
