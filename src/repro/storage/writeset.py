"""Writesets: the unit of certification and propagation.

A transaction's writeset is the set of records it inserted, updated or
deleted (Section IV of the paper).  The certifier checks writesets against
each other for write-write conflicts; committed writesets travel to the other
replicas as *refresh transactions* and are applied there.

A :class:`WriteOp` carries the full after-image of the row (or a tombstone),
so applying a refresh writeset needs no re-execution — exactly the
propagation model of the paper's middleware.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Optional

__all__ = ["OpKind", "WriteOp", "WriteSet"]


class OpKind(enum.Enum):
    """Kind of a single row mutation."""

    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


@dataclass(frozen=True, slots=True)
class WriteOp:
    """One row mutation: table, primary key, kind and the row after-image."""

    table: str
    key: Any
    kind: OpKind
    values: Optional[Mapping[str, Any]] = None
    _content_hash: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: the ``RowVersion`` the first table to install this op built from it;
    #: tables in the same state install that node instead of building their
    #: own (``VersionedTable.apply_op``).  Like the hash it rides on the op
    #: because the simulated network shares message objects: certifier log,
    #: refresh messages and recovery replay all carry this one instance.
    _image: Optional[Any] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.kind is OpKind.DELETE:
            object.__setattr__(self, "values", None)
        else:
            if self.values is None:
                raise ValueError(f"{self.kind.value} op requires row values")
            object.__setattr__(self, "values", dict(self.values))

    def content_hash(self) -> int:
        """64-bit content hash of the after-image (``storage.digest``).

        Cached on the op: a certified op is folded into digests once by the
        certifier's tracker and once per replica apply, and the simulated
        network shares message objects — so each image is hashed once
        cluster-wide, which is what keeps digest maintenance within its
        budget on the refresh-apply hot path.
        """
        h = self._content_hash
        if h is None:
            from .digest import row_content_hash  # local import avoids cycle

            h = row_content_hash(self.table, self.key, self.values)
            object.__setattr__(self, "_content_hash", h)
        return h


class WriteSet:
    """An ordered collection of :class:`WriteOp`, at most one per row.

    Later ops on the same (table, key) replace earlier ones with the natural
    composition (e.g. INSERT then UPDATE collapses to INSERT with the updated
    image; INSERT then DELETE cancels out to DELETE-of-nothing which we keep
    as a tombstone only if the row pre-existed — the engine resolves that at
    buffering time, so here replacement is last-writer-wins on kind+image).
    """

    __slots__ = ("_ops", "_slots")

    def __init__(self, ops: Iterable[WriteOp] = ()):
        # Insertion-ordered: replacing a slot's op keeps its position.
        self._ops: dict[tuple[str, Any], WriteOp] = {}
        # Cached key-set; rebuilt lazily after a new slot is added so the
        # conflict predicate is a frozenset intersection, not per-op probing.
        self._slots: Optional[frozenset] = None
        for op in ops:
            self.add(op)

    # -- construction ------------------------------------------------------
    def add(self, op: WriteOp) -> None:
        """Add (or replace) the op for ``(op.table, op.key)``."""
        slot = (op.table, op.key)
        if slot not in self._ops:
            self._slots = None
        self._ops[slot] = op

    # -- inspection ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ops)

    def __bool__(self) -> bool:
        return bool(self._ops)

    def __iter__(self) -> Iterator[WriteOp]:
        return iter(self._ops.values())

    def __contains__(self, slot: tuple[str, Any]) -> bool:
        return slot in self._ops

    @property
    def is_empty(self) -> bool:
        """True for a read-only transaction's writeset."""
        return not self._ops

    @property
    def slots(self) -> frozenset:
        """The precomputed ``(table, key)`` key-set of this writeset.

        Cached between mutations: the certifier's conflict predicate and the
        certification index both consume it on every commit, so it must not
        be rebuilt per probe.
        """
        if self._slots is None:
            self._slots = frozenset(self._ops)
        return self._slots

    @property
    def tables(self) -> frozenset[str]:
        """The set of tables this writeset touches (drives table versions)."""
        return frozenset(table for table, _key in self._ops)

    def keys_for(self, table: str) -> frozenset:
        """Primary keys written in ``table``."""
        return frozenset(key for tbl, key in self._ops if tbl == table)

    def op_for(self, table: str, key: Any) -> Optional[WriteOp]:
        """The op on ``(table, key)``, if any."""
        return self._ops.get((table, key))

    # -- conflict detection ---------------------------------------------------
    def conflicts_with(self, other: "WriteSet") -> bool:
        """Write-write conflict test: any (table, key) written by both.

        This is the certifier's conflict predicate (Section IV): a
        transaction T can commit iff its writeset does not write-conflict
        with the writesets committed since T started.
        """
        return not self.slots.isdisjoint(other.slots)

    def conflicting_slots(self, other: "WriteSet") -> frozenset[tuple[str, Any]]:
        """The (table, key) slots written by both writesets."""
        return self.slots & other.slots

    def __repr__(self) -> str:
        return f"<WriteSet ops={len(self._ops)} tables={sorted(self.tables)}>"
