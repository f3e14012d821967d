"""Pluggable consistency policies — the protocol's decision points as a
strategy layer.

A consistency scheme makes decisions in three middleware layers:
start-version tagging in the load balancer, commit-acknowledgment rules in
the replica proxy, and global-commit tracking in the certifier.  A
:class:`ConsistencyPolicy` gathers those decisions behind one interface so a
new scheme is a single class, not a cross-layer edit:

* **load balancer** — :meth:`~ConsistencyPolicy.start_version` computes the
  consistency tag (the minimum ``V_local`` a replica must reach before the
  transaction starts) from the version tracker's
  ``V_system``/per-table/per-session state;
* **replica proxy** — :attr:`~ConsistencyPolicy.waits_for_global_commit`
  gates the EAGER-style *global* stage and
  :meth:`~ConsistencyPolicy.commit_ack_flush` prices the synchronous
  log-flush a commit acknowledgment must pay (0 for the lazy schemes);
* **certifier** — :attr:`~ConsistencyPolicy.tracks_global_commit` turns on
  the per-commit applied-replica counters behind global-commit notices.

Policies register under a short name (``"sc-fine"``, ``"relaxed"``) in a
process-wide registry; :func:`resolve_policy` accepts a registered name
(optionally parameterized, ``"relaxed:3"``) or a ready policy instance.
A scheme's parameter lives in its spec: ``"relaxed:5"``, and bare
``"relaxed"`` means ``"relaxed:10"``.

The module ships the paper's four configurations (EAGER, SC-COARSE,
SC-FINE, SESSION) and the BASELINE and RELAXED extensions.
:class:`RelaxedPolicy` — ``relaxed:k`` bounded staleness — is written purely
against this interface: a client may read a snapshot at most ``k`` versions
behind ``V_system``; ``k = 0`` degenerates to SC-COARSE.
"""

from __future__ import annotations

import abc
from typing import Callable, Iterable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..middleware.perfmodel import ReplicaPerformance
    from .versions import VersionTracker

__all__ = [
    "ConsistencyPolicy",
    "EagerPolicy",
    "ScCoarsePolicy",
    "ScFinePolicy",
    "SessionPolicy",
    "BaselinePolicy",
    "RelaxedPolicy",
    "register_policy",
    "available_policies",
    "resolve_policy",
]


class ConsistencyPolicy(abc.ABC):
    """One consistency scheme's protocol decisions, all in one place.

    Subclass and override the decision hooks, then
    :func:`register_policy` the class under a short name to make it
    available to ``ClusterConfig(level=...)`` and ``repro audit --level``.
    The base class defaults describe a lazy scheme with no global-commit
    round, which is the common case.
    """

    #: registry key, e.g. ``"sc-coarse"``
    name: str = ""
    #: report label matching the paper's legends, e.g. ``"SC-COARSE"``
    label: str = ""
    #: True for schemes that guarantee strong consistency
    is_strong: bool = False
    #: True when update propagation is lazy (commit acks do not wait for
    #: remote replicas)
    is_lazy: bool = True
    #: True for schemes that may delay transaction start
    uses_start_delay: bool = False

    @property
    def spec(self) -> str:
        """Canonical ``--level`` spelling that reconstructs this policy."""
        return self.name

    # -- load balancer decisions -------------------------------------------
    @abc.abstractmethod
    def start_version(
        self,
        tracker: "VersionTracker",
        table_set: Optional[Iterable[str]] = None,
        session_id: Optional[str] = None,
    ) -> int:
        """Minimum ``V_local`` the receiving replica must reach before the
        transaction may start (the consistency tag)."""

    # -- replica proxy decisions -------------------------------------------
    #: wait for the certifier's global-commit notice before acknowledging
    #: the client (the *global* stage)
    waits_for_global_commit: bool = False

    def commit_ack_flush(self, perf: "ReplicaPerformance", writeset_size: int) -> float:
        """Log-flush time (ms) a commit acknowledgment must serialize
        through before reporting ``CommitApplied``; 0 means report
        immediately (lazy schemes keep durability at the certifier)."""
        return 0.0

    # -- certifier decisions ------------------------------------------------
    #: maintain per-commit applied-replica counters and emit
    #: global-commit notices once every replica has applied the commit
    tracks_global_commit: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.spec!r}>"


class EagerPolicy(ConsistencyPolicy):
    """Eager strong consistency: acknowledge an update only after every
    replica committed it (global commit round + synchronous log flush)."""

    name = "eager"
    label = "EAGER"
    is_strong = True
    is_lazy = False
    waits_for_global_commit = True
    tracks_global_commit = True

    def start_version(self, tracker, table_set=None, session_id=None) -> int:
        return 0

    def commit_ack_flush(self, perf, writeset_size) -> float:
        return perf.eager_commit_flush(writeset_size)


class ScCoarsePolicy(ConsistencyPolicy):
    """Lazy coarse-grained strong consistency: delay start until the
    replica reaches the full ``V_system``."""

    name = "sc-coarse"
    label = "SC-COARSE"
    is_strong = True
    uses_start_delay = True

    def start_version(self, tracker, table_set=None, session_id=None) -> int:
        return tracker.v_system


class ScFinePolicy(ConsistencyPolicy):
    """Lazy fine-grained strong consistency: delay start only until the
    highest version among the transaction's table-set (Table I's
    ``V_start``); degrades safely to coarse when the table-set is
    unknown."""

    name = "sc-fine"
    label = "SC-FINE"
    is_strong = True
    uses_start_delay = True

    def start_version(self, tracker, table_set=None, session_id=None) -> int:
        if table_set is None:
            return tracker.v_system
        tables = list(table_set)
        if not tables:
            return 0
        return max(tracker.table_version(table) for table in tables)


class SessionPolicy(ConsistencyPolicy):
    """Session consistency: wait only for the session's own last observed
    version."""

    name = "session"
    label = "SESSION"
    uses_start_delay = True

    def start_version(self, tracker, table_set=None, session_id=None) -> int:
        if session_id is None:
            return 0
        return tracker.session_version(session_id)


class BaselinePolicy(ConsistencyPolicy):
    """Plain GSI with no start synchronization — the deliberately weak
    baseline the history checkers exhibit violations against."""

    name = "baseline"
    label = "BASELINE"

    def start_version(self, tracker, table_set=None, session_id=None) -> int:
        return 0


class RelaxedPolicy(ConsistencyPolicy):
    """The relaxed-currency model (Bernstein et al. [6], Guo et al. [21]):
    bounded staleness, a freshness bound of *k* versions behind
    ``V_system`` (``relaxed:k``; bare ``relaxed`` is ``relaxed:10``).
    Bound 0 degenerates to SC-COARSE and is therefore strongly consistent;
    an unbounded one to BASELINE."""

    name = "relaxed"
    label = "RELAXED"
    uses_start_delay = True

    def __init__(self, bound: int = 10):
        if bound < 0:
            raise ValueError("staleness bound must be >= 0")
        self.bound = bound

    @property
    def spec(self) -> str:
        return f"relaxed:{self.bound}"

    @property
    def is_strong(self) -> bool:  # type: ignore[override]
        return self.bound == 0

    def start_version(self, tracker, table_set=None, session_id=None) -> int:
        return max(0, tracker.v_system - self.bound)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: name -> factory(arg) -> ConsistencyPolicy
_REGISTRY: dict[str, Callable[[Optional[str]], ConsistencyPolicy]] = {}


def register_policy(
    name: str,
    factory: Callable[[Optional[str]], ConsistencyPolicy],
) -> None:
    """Register a policy factory under ``name``.

    ``factory(arg)`` receives the optional ``:arg`` suffix of a
    parameterized spec (``"relaxed:3"`` → ``arg="3"``; None when absent).
    """
    _REGISTRY[name] = factory


def available_policies() -> tuple[str, ...]:
    """Registered policy names, sorted (for CLI choices and error text)."""
    return tuple(sorted(_REGISTRY))


def _int_arg(name: str, arg: str) -> int:
    try:
        return int(arg)
    except ValueError:
        raise ValueError(
            f"policy {name!r} takes an integer parameter, got {arg!r}"
        ) from None


def _stateless(policy: ConsistencyPolicy):
    return lambda arg: policy


register_policy("eager", _stateless(EagerPolicy()))
register_policy("sc-coarse", _stateless(ScCoarsePolicy()))
register_policy("sc-fine", _stateless(ScFinePolicy()))
register_policy("session", _stateless(SessionPolicy()))
register_policy("baseline", _stateless(BaselinePolicy()))
register_policy(
    "relaxed",
    lambda arg: RelaxedPolicy() if arg is None else RelaxedPolicy(_int_arg("relaxed", arg)),
)


def resolve_policy(spec) -> ConsistencyPolicy:
    """Resolve a policy from whatever the caller has.

    ``spec`` may be a :class:`ConsistencyPolicy` instance (returned as-is)
    or a registered name with an optional ``:parameter`` suffix
    (``"sc-fine"``, ``"relaxed:3"``).  Raises :class:`ValueError` naming the
    registered policies for an unknown name.
    """
    if isinstance(spec, ConsistencyPolicy):
        return spec
    if not isinstance(spec, str):
        raise TypeError(
            f"cannot resolve a consistency policy from {spec!r}; expected a "
            "ConsistencyPolicy or registered policy name"
        )
    name, _, arg = spec.partition(":")
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ValueError(
            f"unknown consistency policy {name!r}; registered policies: "
            + ", ".join(available_policies())
        )
    return factory(arg if arg else None)
