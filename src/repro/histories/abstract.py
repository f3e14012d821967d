"""Abstract transaction histories (Section II of the paper).

A history is a sequence of operations — ``B_i``, ``R_i(X)=v``, ``W_i(X)=v``,
``C_i``, ``A_i`` — over uniquely identified data items.  This module gives
those histories a concrete form plus the checkers the paper's discussion
relies on:

* **strong consistency** (Definition 1): every transaction reads the latest
  committed state as of its begin;
* **conflict-serializability**: acyclic conflict graph;
* **snapshot isolation** / **generalized snapshot isolation**: reads from a
  consistent snapshot (at begin for SI; at-or-before begin for GSI) plus
  first-committer-wins among concurrent writers.

The paper's example histories H1/H2/H3 live in
:mod:`repro.histories.examples` and the tests verify each claim the paper
makes about them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional, Sequence

__all__ = [
    "OpKind",
    "Op",
    "AbstractHistory",
    "begin",
    "read",
    "write",
    "commit",
    "abort",
    "is_conflict_serializable",
    "strong_consistency_violations",
    "is_strongly_consistent",
    "is_snapshot_isolated",
]


class OpKind(enum.Enum):
    """Kind of a history operation."""

    BEGIN = "B"
    READ = "R"
    WRITE = "W"
    COMMIT = "C"
    ABORT = "A"


@dataclass(frozen=True)
class Op:
    """One operation of transaction ``txn`` (item/value for reads/writes)."""

    kind: OpKind
    txn: str
    item: Optional[str] = None
    value: Any = None

    def __str__(self) -> str:
        if self.kind in (OpKind.READ, OpKind.WRITE):
            return f"{self.kind.value}_{self.txn}({self.item}={self.value})"
        return f"{self.kind.value}_{self.txn}"


def begin(txn: str) -> Op:
    """``B_txn``"""
    return Op(OpKind.BEGIN, txn)


def read(txn: str, item: str, value: Any) -> Op:
    """``R_txn(item=value)``"""
    return Op(OpKind.READ, txn, item, value)


def write(txn: str, item: str, value: Any) -> Op:
    """``W_txn(item=value)``"""
    return Op(OpKind.WRITE, txn, item, value)


def commit(txn: str) -> Op:
    """``C_txn``"""
    return Op(OpKind.COMMIT, txn)


def abort(txn: str) -> Op:
    """``A_txn``"""
    return Op(OpKind.ABORT, txn)


class AbstractHistory:
    """An ordered sequence of operations with validity checks.

    ``initial`` maps each item to its value before the history starts
    (defaulting to 0, matching the paper's examples).
    """

    def __init__(self, ops: Sequence[Op], initial: Optional[dict[str, Any]] = None):
        self.ops = list(ops)
        self.initial = dict(initial or {})
        self._validate()

    def _validate(self) -> None:
        state: dict[str, str] = {}
        for op in self.ops:
            current = state.get(op.txn)
            if op.kind is OpKind.BEGIN:
                if current is not None:
                    raise ValueError(f"{op.txn} begins twice")
                state[op.txn] = "active"
            elif op.kind in (OpKind.READ, OpKind.WRITE):
                if current != "active":
                    raise ValueError(f"{op} outside an active transaction")
                if op.item is None:
                    raise ValueError(f"{op} lacks an item")
            elif op.kind in (OpKind.COMMIT, OpKind.ABORT):
                if current != "active":
                    raise ValueError(f"{op} without an active transaction")
                state[op.txn] = "committed" if op.kind is OpKind.COMMIT else "aborted"
        self._final_state = state

    # -- basic queries ------------------------------------------------------
    @property
    def transactions(self) -> list[str]:
        """All transaction names, in order of first appearance."""
        seen: list[str] = []
        for op in self.ops:
            if op.txn not in seen:
                seen.append(op.txn)
        return seen

    def committed_transactions(self) -> list[str]:
        """Names of committed transactions, in commit order."""
        return [op.txn for op in self.ops if op.kind is OpKind.COMMIT]

    def is_committed(self, txn: str) -> bool:
        return self._final_state.get(txn) == "committed"

    def index_of(self, kind: OpKind, txn: str) -> int:
        """Position of the (unique) begin/commit/abort op of ``txn``."""
        for i, op in enumerate(self.ops):
            if op.kind is kind and op.txn == txn:
                return i
        raise KeyError(f"no {kind.value}_{txn} in history")

    def ops_of(self, txn: str) -> list[Op]:
        return [op for op in self.ops if op.txn == txn]

    def writes_of(self, txn: str) -> list[Op]:
        return [op for op in self.ops if op.txn == txn and op.kind is OpKind.WRITE]

    def write_items(self, txn: str) -> set[str]:
        return {op.item for op in self.writes_of(txn)}

    def committed_value_as_of(self, item: str, position: int) -> Any:
        """The latest committed value of ``item`` before index ``position``.

        "Committed before" means the writer's COMMIT op precedes
        ``position``; among several, the one committing last wins.
        """
        value = self.initial.get(item, 0)
        commits_before = {
            op.txn: i
            for i, op in enumerate(self.ops[:position])
            if op.kind is OpKind.COMMIT
        }
        best_commit = -1
        for i, op in enumerate(self.ops):
            if op.kind is OpKind.WRITE and op.item == item:
                commit_at = commits_before.get(op.txn)
                # >= so that a transaction's *last* write to the item wins
                # over its earlier writes (same commit position).
                if commit_at is not None and commit_at >= best_commit:
                    best_commit = commit_at
                    value = op.value
        return value

    def __str__(self) -> str:
        return "{" + ", ".join(str(op) for op in self.ops) + "}"


# ---------------------------------------------------------------------------
# Conflict serializability
# ---------------------------------------------------------------------------

def conflict_graph(history: AbstractHistory) -> dict[str, set[str]]:
    """Conflict (precedence) graph over committed transactions, as a map
    from each transaction to its successors.

    Edge T_a → T_b for each pair of conflicting operations (same item, at
    least one write, different committed transactions) where T_a's operation
    precedes T_b's in the history.
    """
    graph = {txn: set() for txn in history.committed_transactions()}
    # Operations conflict only within one item, so one pass that remembers,
    # per item, who has read and who has written it so far finds every edge.
    seen: dict[str, tuple[set[str], set[str]]] = {}
    for op in history.ops:
        if op.txn not in graph or op.kind not in (OpKind.READ, OpKind.WRITE):
            continue
        readers, writers = seen.setdefault(op.item, (set(), set()))
        if op.kind is OpKind.WRITE:
            earlier = readers | writers
            writers.add(op.txn)
        else:
            earlier = writers
            readers.add(op.txn)
        for txn in earlier:
            if txn != op.txn:
                graph[txn].add(op.txn)
    return graph


def is_conflict_serializable(history: AbstractHistory) -> bool:
    """True when the conflict graph is acyclic."""
    graph = conflict_graph(history)
    # Iterative three-colour depth-first search (a history may chain more
    # transactions than the recursion limit): absent = unvisited, False = on
    # the current path, True = finished.  An edge into the path is a cycle.
    finished: dict[str, bool] = {}
    for root in graph:
        if root in finished:
            continue
        finished[root] = False
        path = [(root, iter(graph[root]))]
        while path:
            txn, successors = path[-1]
            for successor in successors:
                state = finished.get(successor)
                if state is None:
                    finished[successor] = False
                    path.append((successor, iter(graph[successor])))
                    break
                if not state:
                    return False
            else:
                finished[txn] = True
                path.pop()
    return True


# ---------------------------------------------------------------------------
# Strong consistency (Definition 1)
# ---------------------------------------------------------------------------

def strong_consistency_violations(history: AbstractHistory) -> list[str]:
    """Violations of Definition 1 found in the history.

    For each committed transaction T_j and each of its reads R_j(X)=v:
    the value must be the latest committed value of X as of B_j (or T_j's
    own earlier write).  If some T_i committed a different value to X before
    T_j began and T_j read an older one, that pair violates "T_i commits
    before T_j starts ⇒ T_i precedes T_j".
    """
    violations = []
    for txn in history.committed_transactions():
        begin_at = history.index_of(OpKind.BEGIN, txn)
        own_writes: dict[str, Any] = {}
        for op in history.ops_of(txn):
            if op.kind is OpKind.WRITE:
                own_writes[op.item] = op.value
            elif op.kind is OpKind.READ:
                if op.item in own_writes:
                    if op.value != own_writes[op.item]:
                        violations.append(
                            f"{txn} read {op.item}={op.value!r} after writing "
                            f"{own_writes[op.item]!r}"
                        )
                    continue
                expected = history.committed_value_as_of(op.item, begin_at)
                if op.value != expected:
                    violations.append(
                        f"{txn} read {op.item}={op.value!r} but the latest "
                        f"committed value at its begin was {expected!r}"
                    )
    return violations


def is_strongly_consistent(history: AbstractHistory) -> bool:
    """True when no strong-consistency violations exist."""
    return not strong_consistency_violations(history)


# ---------------------------------------------------------------------------
# Snapshot isolation / generalized snapshot isolation
# ---------------------------------------------------------------------------

def is_snapshot_isolated(history: AbstractHistory, generalized: bool = False) -> bool:
    """True when every committed transaction could have read from a
    consistent snapshot and first-committer-wins holds.

    With ``generalized=False`` the snapshot must be taken exactly at the
    transaction's begin (conventional SI).  With ``generalized=True`` any
    snapshot point at-or-before the begin is allowed (GSI) — this is what a
    replica serving a slightly stale copy provides.

    First-committer-wins: two committed transactions whose
    [snapshot, commit] intervals overlap must not write a common item.
    """
    snapshot_points: dict[str, int] = {}
    for txn in history.committed_transactions():
        begin_at = history.index_of(OpKind.BEGIN, txn)
        candidates = range(begin_at, -1, -1) if generalized else [begin_at]
        chosen = None
        for point in candidates:
            if _reads_consistent_at(history, txn, point):
                chosen = point
                break
        if chosen is None:
            return False
        snapshot_points[txn] = chosen

    committed = history.committed_transactions()
    for i, a in enumerate(committed):
        for b in committed[i + 1:]:
            a_interval = (snapshot_points[a], history.index_of(OpKind.COMMIT, a))
            b_interval = (snapshot_points[b], history.index_of(OpKind.COMMIT, b))
            overlap = (
                a_interval[0] < b_interval[1] and b_interval[0] < a_interval[1]
            )
            if overlap and history.write_items(a) & history.write_items(b):
                return False
    return True


def _reads_consistent_at(history: AbstractHistory, txn: str, point: int) -> bool:
    """Do all of ``txn``'s reads match the committed state at ``point``
    (plus the transaction's own earlier writes)?"""
    own: dict[str, Any] = {}
    for op in history.ops_of(txn):
        if op.kind is OpKind.WRITE:
            own[op.item] = op.value
        elif op.kind is OpKind.READ:
            if op.item in own:
                if op.value != own[op.item]:
                    return False
            elif op.value != history.committed_value_as_of(op.item, point):
                return False
    return True
