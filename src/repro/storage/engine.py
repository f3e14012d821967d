"""The storage engine: snapshot-isolation execution over a `Database`.

This is the "standalone DBMS configured to provide snapshot isolation" that
each replica hosts in the paper's prototype.  It offers:

* ``begin()`` — start a transaction on a snapshot (by default the latest
  local version; the middleware may begin on an older *local* snapshot,
  which is what Generalized Snapshot Isolation permits);
* row reads/scans/index lookups at the transaction's snapshot, with
  read-your-own-writes;
* inserts/updates/deletes buffered into the transaction's writeset;
* ``commit()`` with **first-committer-wins** validation — used when the
  engine runs standalone.  In the replicated system the *certifier* performs
  this validation globally and the proxy calls
  :meth:`commit_certified` instead;
* ``apply_refresh()`` — install a remote transaction's writeset.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional

from .database import Database
from .errors import (
    DuplicateKeyError,
    TransactionStateError,
    UnknownRowError,
    WriteConflictError,
)
from .schema import TableSchema
from .transaction import Transaction, TxnState
from .writeset import OpKind, WriteOp, WriteSet

__all__ = ["StorageEngine"]


class StorageEngine:
    """Snapshot-isolation transaction execution over one database copy."""

    def __init__(self, database: Optional[Database] = None, name: str = "engine"):
        self.database = database if database is not None else Database()
        self.name = name
        self.commit_count = 0
        self.abort_count = 0
        self._active: dict[int, Transaction] = {}

    # -- lifecycle ----------------------------------------------------------
    def begin(self, snapshot_version: Optional[int] = None) -> Transaction:
        """Start a transaction.

        ``snapshot_version`` defaults to the latest local version.  A caller
        may pass an older version (GSI allows any locally available
        snapshot) but never a version the copy has not reached yet.
        """
        latest = self.database.version
        if snapshot_version is None:
            snapshot_version = latest
        elif snapshot_version > latest:
            raise TransactionStateError(
                f"cannot begin at v{snapshot_version}: local copy is at v{latest}"
            )
        elif snapshot_version < 0:
            raise TransactionStateError(f"invalid snapshot version {snapshot_version}")
        txn = Transaction(snapshot_version)
        self._active[txn.txn_id] = txn
        return txn

    @property
    def active_transactions(self) -> tuple[Transaction, ...]:
        """Currently active local transactions (early certification scans
        these when a refresh writeset arrives)."""
        return tuple(self._active.values())

    def oldest_active_snapshot(self) -> Optional[int]:
        """Oldest snapshot among active transactions (vacuum horizon)."""
        if not self._active:
            return None
        return min(txn.snapshot_version for txn in self._active.values())

    # -- reads --------------------------------------------------------------
    def read(self, txn: Transaction, table: str, key: Any) -> Optional[Mapping[str, Any]]:
        """Row visible to ``txn`` (its own writes first), or None.

        The buffered-read probe is inlined (one dict lookup): this is the
        single hottest storage entry point.
        """
        txn._require_active()
        op = txn._writes.get((table, key))
        txn.read_keys.add((table, key))
        if op is not None:
            return None if op.kind is OpKind.DELETE else op.values
        return self.database.table(table).read(key, txn.snapshot_version)

    def read_required(self, txn: Transaction, table: str, key: Any) -> Mapping[str, Any]:
        """Like :meth:`read` but raises :class:`UnknownRowError` on a miss."""
        values = self.read(txn, table, key)
        if values is None:
            raise UnknownRowError(table, key)
        return values

    def scan(
        self,
        txn: Transaction,
        table: str,
        predicate: Optional[Callable[[Mapping[str, Any]], bool]] = None,
        limit: Optional[int] = None,
    ) -> list[Mapping[str, Any]]:
        """Visible rows of ``table`` merged with the txn's own writes."""
        txn._require_active()
        tbl = self.database.table(table)
        pk = tbl.schema.primary_key
        ops = txn.ops_for_table(table)
        if not ops:
            # Fast path: nothing to overlay, and the table scan already
            # yields rows in key order — stream straight through without
            # building the merge dict or re-sorting.
            note_read = txn.note_read
            result = []
            for values in tbl.scan(txn.snapshot_version, predicate=None):
                note_read(table, values[pk])
                if predicate is None or predicate(values):
                    result.append(values)
                    if limit is not None and len(result) >= limit:
                        break
            return result
        rows: dict[Any, Mapping[str, Any]] = {}
        for values in tbl.scan(txn.snapshot_version, predicate=None):
            rows[values[pk]] = values
        # Overlay the transaction's buffered writes on this table.
        for op in ops:
            if op.kind is OpKind.DELETE:
                rows.pop(op.key, None)
            else:
                rows[op.key] = op.values
        result = []
        for key in sorted(rows, key=lambda k: (type(k).__name__, k)):
            values = rows[key]
            txn.note_read(table, key)
            if predicate is None or predicate(values):
                result.append(values)
                if limit is not None and len(result) >= limit:
                    break
        return result

    def lookup(self, txn: Transaction, table: str, column: str, value: Any) -> list:
        """Keys with ``column == value`` visible to ``txn`` (index-backed
        where an index exists), merged with the txn's own writes."""
        txn._require_active()
        tbl = self.database.table(table)
        matches = tbl.lookup(column, value, txn.snapshot_version)
        ops = txn.ops_for_table(table)
        if not ops:
            # Fast path: no overlay; the table's result is already sorted.
            for key in matches:
                txn.note_read(table, key)
            return matches
        keys = set(matches)
        for op in ops:
            if op.kind is OpKind.DELETE:
                keys.discard(op.key)
            elif op.values.get(column) == value:
                keys.add(op.key)
            else:
                keys.discard(op.key)
        for key in keys:
            txn.note_read(table, key)
        return sorted(keys, key=lambda k: (type(k).__name__, k))

    # -- writes -----------------------------------------------------------
    def insert(self, txn: Transaction, table: str, values: Mapping[str, Any]) -> Any:
        """Buffer an insert and return the row's primary key; duplicate
        (visible) keys are rejected eagerly."""
        txn._require_active()
        tbl = self.database.table(table)
        tbl.schema.validate_row(values)
        key = tbl.schema.key_of(values)
        if self.read(txn, table, key) is not None:
            raise DuplicateKeyError(table, key)
        txn.buffer_write(WriteOp(table, key, OpKind.INSERT, values))
        return key

    def update(
        self, txn: Transaction, table: str, key: Any, changes: Mapping[str, Any]
    ) -> None:
        """Buffer an update of ``changes`` onto the visible row image."""
        txn._require_active()
        tbl = self.database.table(table)
        tbl.schema.validate_row(changes, partial=True)
        if tbl.schema.primary_key in changes and changes[tbl.schema.primary_key] != key:
            raise TransactionStateError("primary key update is not supported")
        current = self.read(txn, table, key)
        if current is None:
            raise UnknownRowError(table, key)
        merged = dict(current)
        merged.update(changes)
        txn.buffer_write(WriteOp(table, key, OpKind.UPDATE, merged))

    def delete(self, txn: Transaction, table: str, key: Any) -> None:
        """Buffer a delete of a visible row."""
        txn._require_active()
        if self.read(txn, table, key) is None:
            raise UnknownRowError(table, key)
        txn.buffer_write(WriteOp(table, key, OpKind.DELETE))

    # -- commit paths ----------------------------------------------------------
    def validate_first_committer_wins(self, txn: Transaction) -> None:
        """Raise :class:`WriteConflictError` if any row written by ``txn``
        was committed after the transaction's snapshot."""
        for op in txn.writeset:
            committed_at = self.database.latest_write_version(op.table, op.key)
            if committed_at > txn.snapshot_version:
                raise WriteConflictError(
                    op.table, op.key, txn.snapshot_version, committed_at
                )

    def commit(self, txn: Transaction) -> Optional[int]:
        """Standalone commit with local first-committer-wins validation.

        Returns the commit version, or None for a read-only transaction.
        On conflict the transaction is aborted and the error re-raised.
        """
        txn._require_active()
        if txn.is_read_only:
            self._finish_commit(txn, None)
            return None
        try:
            self.validate_first_committer_wins(txn)
        except WriteConflictError:
            self.abort(txn, reason="first-committer-wins conflict")
            raise
        commit_version = self.database.version + 1
        self.database.apply_writeset(txn.writeset, commit_version)
        self._finish_commit(txn, commit_version)
        return commit_version

    def commit_certified(self, txn: Transaction, commit_version: int,
                         after: Optional[tuple] = None) -> int:
        """Commit a transaction the *certifier* has already validated.

        The proxy calls this once the certifier assigns the commit version;
        its predecessors — ``after``, None for every prior version — must
        already be applied locally (the proxy's sync stage waits for them).
        """
        txn._require_active()
        if txn.is_read_only:
            raise TransactionStateError("read-only transactions commit locally")
        self.database.apply_writeset(txn.writeset, commit_version, after)
        self._finish_commit(txn, commit_version)
        return commit_version

    def commit_read_only(self, txn: Transaction) -> None:
        """Commit a read-only transaction (no version consumed)."""
        txn._require_active()
        if not txn.is_read_only:
            raise TransactionStateError("transaction has writes; not read-only")
        self._finish_commit(txn, None)

    def abort(self, txn: Transaction, reason: str = "aborted") -> None:
        """Abort a transaction, discarding its buffered writes."""
        if txn.state is TxnState.ABORTED:
            return
        txn.mark_aborted(reason)
        self._active.pop(txn.txn_id, None)
        self.abort_count += 1

    def _finish_commit(self, txn: Transaction, commit_version: Optional[int]) -> None:
        txn.mark_committed(commit_version)
        self._active.pop(txn.txn_id, None)
        self.commit_count += 1

    # -- refresh transactions ---------------------------------------------------
    def apply_refresh(self, writeset: WriteSet, commit_version: int,
                      after: Optional[tuple] = None) -> None:
        """Install a remote transaction's writeset at its global version."""
        self.database.apply_writeset(writeset, commit_version, after)

    # -- convenience --------------------------------------------------------
    def create_table(self, schema: TableSchema) -> None:
        """Create a table in the underlying database."""
        self.database.create_table(schema)

    @property
    def version(self) -> int:
        """The copy's committed version (``V_local``)."""
        return self.database.version
