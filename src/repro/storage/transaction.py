"""Transaction objects: snapshot, buffered writes, lifecycle state.

A transaction reads from the snapshot fixed at begin time and buffers its own
writes (read-your-own-writes).  The buffered writes become the transaction's
:class:`~repro.storage.writeset.WriteSet` at commit time — the artifact the
certifier certifies and the middleware propagates.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Mapping, Optional

from .errors import TransactionStateError
from .writeset import OpKind, WriteOp, WriteSet

__all__ = ["TxnState", "Transaction"]

_txn_ids = itertools.count(1)


class TxnState(enum.Enum):
    """Transaction lifecycle."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One client transaction executing against a snapshot.

    Created by :meth:`StorageEngine.begin`.  Not thread-safe; the simulation
    is single-threaded by construction.
    """

    def __init__(self, snapshot_version: int, txn_id: Optional[int] = None):
        self.txn_id = txn_id if txn_id is not None else next(_txn_ids)
        self.snapshot_version = snapshot_version
        self.state = TxnState.ACTIVE
        self.commit_version: Optional[int] = None
        self.abort_reason: Optional[str] = None
        # (table, key) -> buffered WriteOp; insertion order preserved.
        self._writes: dict[tuple[str, Any], WriteOp] = {}
        # Writeset materialised from _writes, invalidated on every write.
        self._writeset_cache: Optional[WriteSet] = None
        # (table, key) pairs read, for history recording / analysis.
        self.read_keys: set[tuple[str, Any]] = set()

    # -- state guards ------------------------------------------------------
    @property
    def is_active(self) -> bool:
        return self.state is TxnState.ACTIVE

    @property
    def is_read_only(self) -> bool:
        """True while no writes have been buffered."""
        return not self._writes

    def _require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionStateError(
                f"transaction {self.txn_id} is {self.state.value}, not active"
            )

    # -- write buffering ---------------------------------------------------
    def buffer_write(self, op: WriteOp) -> None:
        """Record a write; later writes to the same row compose naturally.

        Composition rules (all resolved here so the final writeset holds at
        most one op per row):

        * INSERT then UPDATE  -> INSERT with the updated image
        * INSERT then DELETE  -> the pair cancels; the row was never visible
        * UPDATE then DELETE  -> DELETE
        * DELETE then INSERT  -> UPDATE (the row existed before the txn)
        """
        self._require_active()
        self._writeset_cache = None
        slot = (op.table, op.key)
        previous = self._writes.get(slot)
        if previous is None:
            self._writes[slot] = op
            return
        if previous.kind is OpKind.INSERT:
            if op.kind is OpKind.DELETE:
                del self._writes[slot]  # never existed outside the txn
            else:
                self._writes[slot] = WriteOp(op.table, op.key, OpKind.INSERT, op.values)
        elif previous.kind is OpKind.DELETE:
            if op.kind is OpKind.INSERT:
                self._writes[slot] = WriteOp(op.table, op.key, OpKind.UPDATE, op.values)
            else:
                raise TransactionStateError(
                    f"transaction {self.txn_id}: write after delete of "
                    f"{op.table!r}:{op.key!r}"
                )
        else:  # previous UPDATE
            self._writes[slot] = op

    def buffered_read(self, table: str, key: Any) -> tuple[bool, Optional[Mapping[str, Any]]]:
        """Read-your-own-writes lookup.

        Returns ``(hit, values)``: ``hit`` is True when the transaction has
        a buffered op for the row, in which case ``values`` is the buffered
        image (None for a buffered delete).
        """
        op = self._writes.get((table, key))
        if op is None:
            return False, None
        if op.kind is OpKind.DELETE:
            return True, None
        return True, op.values

    def note_read(self, table: str, key: Any) -> None:
        """Record a row read (for histories and analysis)."""
        self.read_keys.add((table, key))

    def ops_for_table(self, table: str) -> list[WriteOp]:
        """Buffered ops touching ``table``, in buffering order.

        Lets read paths (scan/lookup overlay) skip materialising a full
        :class:`WriteSet` — the overwhelmingly common case is a transaction
        with no buffered writes on the scanned table."""
        if not self._writes:
            return []
        return [op for op in self._writes.values() if op.table == table]

    # -- writeset extraction --------------------------------------------------
    @property
    def writeset(self) -> WriteSet:
        """The transaction's current writeset.

        The :class:`WriteSet` snapshots the buffered ops (ops themselves are
        frozen), so the instance is cached until the next buffered write."""
        ws = self._writeset_cache
        if ws is None:
            ws = self._writeset_cache = WriteSet(self._writes.values())
        return ws

    def writes_any(self, slots: frozenset) -> bool:
        """Whether any ``(table, key)`` of ``slots`` is buffered: the
        partial-writeset conflict test, with no :class:`WriteSet` built."""
        return not slots.isdisjoint(self._writes)

    @property
    def table_set(self) -> frozenset[str]:
        """Tables written so far (reads are tracked in ``read_keys``)."""
        return frozenset(table for table, _ in self._writes)

    # -- termination -------------------------------------------------------
    def mark_committed(self, commit_version: Optional[int]) -> None:
        """Transition to COMMITTED (``commit_version`` None when read-only)."""
        self._require_active()
        self.state = TxnState.COMMITTED
        self.commit_version = commit_version

    def mark_aborted(self, reason: str = "aborted") -> None:
        """Transition to ABORTED. Aborting twice is a no-op."""
        if self.state is TxnState.ABORTED:
            return
        self._require_active()
        self.state = TxnState.ABORTED
        self.abort_reason = reason

    def __repr__(self) -> str:
        return (
            f"<Txn {self.txn_id} snap=v{self.snapshot_version} "
            f"{self.state.value} writes={len(self._writes)}>"
        )
