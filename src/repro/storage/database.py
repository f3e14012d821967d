"""A database: a named collection of versioned tables plus the local version
counter.

The paper counts *database versions*: the database starts at version 0 and
the version increments each time an update transaction commits.  Each replica
advances through this sequence at its own pace; :attr:`Database.version` is
that replica's ``V_local``.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from .digest import row_content_hash
from .errors import StorageError, UnknownTableError
from .schema import TableSchema
from .table import VersionedTable
from .writeset import OpKind, WriteOp, WriteSet

__all__ = ["Database"]


class Database:
    """Tables plus the committed-version counter of one replica."""

    def __init__(self, name: str = "db", maintain_digests: bool = True):
        self.name = name
        self._tables: dict[str, VersionedTable] = {}
        self._version = 0
        #: versions applied ahead of the watermark (an apply that named
        #: its predecessors, see :meth:`apply_writeset`)
        self._applied_ahead: set[int] = set()
        #: maintain the incremental anti-entropy digests on the apply path
        #: (pure computation, no simulation events); a cluster without a
        #: scrubber turns it off and :meth:`digests` rescans instead
        self.maintain_digests = maintain_digests
        #: table -> incremental XOR digest over visible latest row images
        self._digests: dict[str, int] = {}
        #: (table, key) -> content hash currently folded into the digest,
        #: so replacing a row never rehashes the old image
        self._latest_hash: dict[tuple, int] = {}
        #: table -> ops applied but not yet folded into the digest; the
        #: apply hot path pays one list append, the fold runs lazily at the
        #: next digest query (scrub rounds, not refreshes, pay it).  The queue
        #: holds references to the certified ops, not copies.
        self._pending_digest_ops: dict[str, list] = {}
        #: table -> version through which a peer row-sync repaired it; ops
        #: at or below the floor are already reflected in the synced images
        #: and are skipped on replay (see :meth:`resync_table`)
        self._resync_floor: dict[str, int] = {}
        #: ops skipped on the apply path because a resync already held them
        self.resync_skipped_ops = 0

    # -- schema ------------------------------------------------------------
    def create_table(self, schema: TableSchema) -> VersionedTable:
        """Create a table; name must be unique."""
        if schema.name in self._tables:
            raise StorageError(f"table {schema.name!r} already exists")
        table = VersionedTable(schema)
        self._tables[schema.name] = table
        return table

    def table(self, name: str) -> VersionedTable:
        """Look up a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(name) from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    def scan_fallbacks(self) -> int:
        """Total lookups that degraded to an O(n) scan because the queried
        column has no secondary index, across all tables (see
        :attr:`VersionedTable.scan_fallbacks`)."""
        return sum(table.scan_fallbacks for table in self._tables.values())

    # -- versions ---------------------------------------------------------
    @property
    def version(self) -> int:
        """This copy's committed database version (``V_local``).

        This is the contiguous *watermark*: the largest ``v`` such that
        every version ``1..v`` has been applied.  Snapshots are taken at
        the watermark, so a row installed ahead of it stays invisible until
        the gap below it fills — which keeps reads repeatable.
        """
        return self._version

    def has_applied(self, version: int) -> bool:
        """Whether ``version``'s writeset has been installed (contiguous
        prefix or ahead of the watermark)."""
        return version <= self._version or version in self._applied_ahead

    @property
    def has_applied_ahead(self) -> bool:
        """True while versions above the contiguous watermark are installed.
        Digest comparisons at the watermark are skipped then — the digest
        already includes the ahead images."""
        return bool(self._applied_ahead)

    # -- commit application ---------------------------------------------------
    def apply_writeset(self, writeset: WriteSet, commit_version: int,
                       after: Optional[tuple] = None) -> None:
        """Install a certified writeset at ``commit_version``.

        Both local commits and refresh transactions funnel through here, so
        every copy applies the identical mutation sequence in the certifier's
        order.  ``after`` lists the versions that must already be applied:
        None is the full prefix (strictly ``version + 1``), a tuple lets
        independent commits install ahead of the watermark.  Empty writesets
        (read-only transactions) consume no version and must not be passed.
        The in-order case with no resync floor (every commit on every
        replica) calls no helper; one naming predecessors checks its order.
        """
        in_order = after is None and commit_version == self._version + 1
        if not in_order:
            self._check_apply_order(commit_version, after)
        tables, floors = self._tables, self._resync_floor
        op = None
        for op in writeset:
            if floors and floors.get(op.table, 0) >= commit_version:
                # A peer row-sync already installed this table's state
                # through a newer version; the op's effect is in the synced
                # images and re-appending it would fork the chain.
                self.resync_skipped_ops += 1
                continue
            table = tables[op.table] if op.table in tables else self.table(op.table)
            if self.maintain_digests:
                self._digest_apply(table, op, commit_version)
            else:
                table.apply_op(op, commit_version)
        if op is None:
            raise StorageError("refusing to apply an empty writeset")
        if in_order and not self._applied_ahead:
            self._version = commit_version
        else:
            self._advance_version(commit_version)

    def _check_apply_order(self, commit_version: int, after: Optional[tuple]) -> None:
        if after is None:
            in_order = commit_version == self._version + 1
        else:
            in_order = not self.has_applied(commit_version) and all(map(self.has_applied, after))
        if not in_order:
            raise StorageError(
                f"out-of-order apply: database at v{self._version}, "
                f"writeset for v{commit_version}"
                + ("" if after is None else f" after {after}")
            )

    def _advance_version(self, commit_version: int) -> None:
        if commit_version == self._version + 1:
            self._version = commit_version
            self._absorb_applied_ahead()
        else:
            self._applied_ahead.add(commit_version)

    def _absorb_applied_ahead(self) -> None:
        """Carry the watermark across a run applied ahead that is now
        contiguous with it."""
        while self._version + 1 in self._applied_ahead:
            self._applied_ahead.discard(self._version + 1)
            self._version += 1

    def load_row(self, table: str, values: Mapping[str, Any]) -> None:
        """Bulk-load one row as part of the initial data set (version 0).

        Initial population is not an update transaction: every replica
        starts with the identical data set at database version 0, so the row
        is installed directly (:meth:`VersionedTable.load_row`); only a
        database keeping digests builds an op, for its lazy fold.  Only
        legal before the first commit.
        """
        if self._version != 0:
            raise StorageError("load_row is only legal before the first commit")
        if values is None:
            raise ValueError("a loaded row requires values")
        tbl = self.table(table)
        if self.maintain_digests:
            op = WriteOp(table, tbl.schema.key_of(values), OpKind.INSERT, values)
            self._digest_apply(tbl, op, 0)
        else:
            tbl.load_row(values)

    def clone(self, name: str) -> "Database":
        """A copy of the version-0 data set over the same row versions.

        A fully replicated cluster populates one database and gives every
        replica a clone: each table's key -> head map and index sets are
        shared until that copy first writes the table, and the row versions
        stay shared as the copies apply the same certified ops (see
        :meth:`VersionedTable.clone`).  The digest state comes along
        unfolded, so the lazy fold stays lazy.
        Only legal before the first commit.
        """
        if self._version != 0:
            raise StorageError("clone is only legal before the first commit")
        twin = Database(name, self.maintain_digests)
        twin._tables = {
            table_name: table.clone() for table_name, table in self._tables.items()
        }
        twin._digests = dict(self._digests)
        twin._latest_hash = dict(self._latest_hash)
        twin._pending_digest_ops = {
            table_name: list(ops)
            for table_name, ops in self._pending_digest_ops.items()
        }
        return twin

    def latest_write_version(self, table: str, key: Any) -> int:
        """Newest commit version that wrote ``(table, key)``; 0 if none."""
        return self.table(table).latest_commit_version(key)

    # -- anti-entropy digests ------------------------------------------------
    def _digest_apply(self, table: VersionedTable, op, commit_version: int) -> None:
        """Apply one op and queue its digest fold (see ``_fold_pending``)."""
        table.apply_op(op, commit_version)
        pending = self._pending_digest_ops.get(op.table)
        if pending is None:
            pending = self._pending_digest_ops[op.table] = []
        pending.append(op)

    def _fold_pending(self, table: Optional[str] = None) -> None:
        """Fold queued ops into the incremental digests.

        Deferred maintenance keeps the refresh-apply hot path at one list
        append per op (``benchmarks/bench_scrub.py`` prices the ≤10%
        budget); the fold itself is O(ops since the last digest query) and
        runs on scrub rounds.  Replaying the per-table queue in apply order
        yields exactly the digest eager maintenance would have — the
        replaced image's hash comes from the per-slot cache (never
        rehashed), and the new image's hash is usually cache-warmed by the
        certifier's tracker (``WriteOp.content_hash``).
        """
        names = (table,) if table is not None else tuple(self._pending_digest_ops)
        latest = self._latest_hash
        for name in names:
            pending = self._pending_digest_ops.get(name)
            if not pending:
                continue
            digest = self._digests.get(name, 0)
            for op in pending:
                slot = (name, op.key)
                old = latest.pop(slot, None)
                if old is not None:
                    digest ^= old
                if op.kind is not OpKind.DELETE:
                    new = op.content_hash()
                    latest[slot] = new
                    digest ^= new
            pending.clear()
            self._digests[name] = digest

    def digest(self, table: str) -> int:
        """The incremental digest of one table (0 for a never-written one)."""
        self.table(table)  # raise UnknownTableError for typos
        if not self.maintain_digests:
            return self.recompute_digests(table)[table]
        self._fold_pending(table)
        return self._digests.get(table, 0)

    def digests(self) -> dict[str, int]:
        """The incremental per-table digest vector (every table, 0 when
        untouched) — a *light* scrub answers with this."""
        if not self.maintain_digests:
            return self.recompute_digests()
        self._fold_pending()
        return {name: self._digests.get(name, 0) for name in self._tables}

    def recompute_digests(self, table: Optional[str] = None) -> dict[str, int]:
        """Full-scan oracle: rehash every visible latest row image.

        Equal to :meth:`digests` unless state rotted underneath the
        incremental bookkeeping — a *deep* scrub answers with this, which is
        what catches in-place corruption the apply path never saw.
        """
        names = (table,) if table is not None else self.table_names
        out: dict[str, int] = {}
        for name in names:
            digest = 0
            for key, values, _lcv, deleted in self.table(name).latest_states():
                if not deleted:
                    digest ^= row_content_hash(name, key, values)
            out[name] = digest
        return out

    def adopt_checkpoint(self, version: int) -> None:
        """Jump the apply watermark to ``version`` after a checkpoint install.

        A bootstrap checkpoint carries every table's latest row images as of
        the donor's ``version``, so once :meth:`resync_table` has installed
        them this copy *is* at that version — without having applied the
        individual writesets.  Versions applied ahead that the checkpoint now
        covers are absorbed; a contiguous run above the new watermark is
        absorbed too (the joiner may have buffered refreshes out of order
        while the transfer was in flight).
        """
        if version > self._version:
            self._version = version
            self._applied_ahead = {v for v in self._applied_ahead if v > version}
            self._absorb_applied_ahead()

    def resync_table(self, table: str, entries, synced_version: int) -> int:
        """Online repair: adopt a healthy peer's latest row images for
        ``table`` (the peer captured them at its version
        ``synced_version``).

        Rows this copy wrote *after* the peer's capture are kept untouched
        (the capture cannot know about them — repair under continuous load),
        and ops for this table at or below ``synced_version`` are
        subsequently skipped on the apply path — their effect is already in
        the adopted images — so the replica's own catch-up replay composes
        cleanly with the sync.  The table's digest is rebuilt from the new
        images.  Returns the number of keys whose visible state differed.
        """
        tbl = self.table(table)
        changed = tbl.replace_rows(entries, keep_newer_than=synced_version)
        self._resync_floor[table] = max(
            self._resync_floor.get(table, 0), synced_version
        )
        if self.maintain_digests:
            # The rebuild below hashes every visible image, so queued folds
            # for this table are superseded; dropping them keeps the next
            # fold from resurrecting pre-repair hashes in the slot cache.
            self._pending_digest_ops.get(table, []).clear()
            for slot in [s for s in self._latest_hash if s[0] == table]:
                del self._latest_hash[slot]
            digest = 0
            for key, values, _lcv, deleted in tbl.latest_states():
                if not deleted:
                    h = row_content_hash(table, key, values)
                    self._latest_hash[(table, key)] = h
                    digest ^= h
            self._digests[table] = digest
        return changed

    def __repr__(self) -> str:
        return (
            f"<Database {self.name!r} v{self._version} "
            f"tables={list(self._tables)}>"
        )
