"""Versioned table: primary index of version chains plus secondary indexes.

A :class:`VersionedTable` stores every committed version of every row (until
vacuumed) and answers snapshot reads and scans.  Secondary indexes map a
column value to the set of keys that *ever* held that value; lookups filter
candidates through snapshot visibility, so index reads are as consistent as
primary reads.

:meth:`VersionedTable.clone` gives a copy-on-write twin: both tables keep a
complete key → chain map (reads never look anywhere else) over *shared*,
frozen chains, and a table replaces a frozen chain with a private copy the
first time it writes that row.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from typing import Any, Callable, Iterator, Mapping, Optional

from .errors import SchemaError
from .rows import RowVersion, VersionChain
from .schema import TableSchema
from .writeset import OpKind, WriteOp

__all__ = ["VersionedTable"]

_logger = logging.getLogger(__name__)


class VersionedTable:
    """All committed state of one table, multiversioned."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._chains: dict[Any, VersionChain] = {}
        self._indexes: dict[str, dict[Any, set]] = {col: {} for col in schema.indexes}
        #: key-ordered snapshot of the key set, rebuilt lazily after inserts
        self._sorted_cache: Optional[list] = None
        #: exact type shared by every key so far (None until the first key);
        #: with a homogeneous key set plain ``sorted()`` reproduces the
        #: :func:`_sort_token` order without building a token per key
        self._key_type: Optional[type] = None
        self._mixed_keys = False
        #: lookups on unindexed columns that degraded to a full scan
        self.scan_fallbacks = 0
        self._fallback_logged: set[str] = set()

    def clone(self) -> "VersionedTable":
        """A copy-on-write twin of this table.

        Every chain is frozen and then shared by both tables; what a write
        mutates in place (the key → chain map, the index sets) is copied.
        The key-order snapshot is shared as is: it is only ever replaced,
        never edited.
        """
        for chain in self._chains.values():
            chain.frozen = True
        twin = VersionedTable(self.schema)
        twin._chains = dict(self._chains)
        twin._indexes = {
            column: {value: set(keys) for value, keys in index.items()}
            for column, index in self._indexes.items()
        }
        twin._sorted_cache = self._sorted_cache
        twin._key_type = self._key_type
        twin._mixed_keys = self._mixed_keys
        twin.scan_fallbacks = self.scan_fallbacks
        twin._fallback_logged = set(self._fallback_logged)
        return twin

    def private_chain(self, key: Any) -> Optional[VersionChain]:
        """This table's own mutable chain for ``key`` (None when the key was
        never written): a chain still shared with a clone is replaced by a
        private copy first, so the write stays in this table."""
        chain = self._chains.get(key)
        if chain is not None and chain.frozen:
            chain = self._chains[key] = chain.copy()
        return chain

    # -- key ordering -------------------------------------------------------
    def _note_key(self, key: Any) -> None:
        """Record a (possibly) new key: invalidate the sorted snapshot and
        track key-type homogeneity."""
        self._sorted_cache = None
        if not self._mixed_keys:
            key_type = type(key)
            if self._key_type is None:
                self._key_type = key_type
            elif self._key_type is not key_type:
                self._mixed_keys = True

    def _ordered_keys(self) -> list:
        """All keys ever written, in :func:`_sort_token` order (cached)."""
        cache = self._sorted_cache
        if cache is None:
            if self._mixed_keys:
                cache = sorted(self._chains, key=_sort_token)
            else:
                cache = sorted(self._chains)
            self._sorted_cache = cache
        return cache

    # -- reads --------------------------------------------------------------
    def read(self, key: Any, snapshot_version: int) -> Optional[Mapping[str, Any]]:
        """Row values visible at ``snapshot_version``, or None."""
        chain = self._chains.get(key)
        if chain is None:
            return None
        # Inlined VersionChain.visible_at (hot read path).
        commit_versions = chain._commit_versions
        idx = bisect_right(commit_versions, snapshot_version)
        if idx == 0:
            return None
        version = chain._versions[idx - 1]
        return None if version.deleted else version.values

    def exists(self, key: Any, snapshot_version: int) -> bool:
        """True when ``key`` is visible at ``snapshot_version``."""
        chain = self._chains.get(key)
        return chain is not None and chain.exists_at(snapshot_version)

    def latest_commit_version(self, key: Any) -> int:
        """Newest commit version that wrote ``key`` (0 if never written)."""
        chain = self._chains.get(key)
        return 0 if chain is None else chain.latest_commit_version

    def scan(
        self,
        snapshot_version: int,
        predicate: Optional[Callable[[Mapping[str, Any]], bool]] = None,
        limit: Optional[int] = None,
    ) -> Iterator[Mapping[str, Any]]:
        """Yield visible rows (optionally filtered), in key order."""
        count = 0
        chains = self._chains
        for key in self._ordered_keys():
            version = chains[key].visible_at(snapshot_version)
            if version is None:
                continue
            values = version.values
            if predicate is not None and not predicate(values):
                continue
            yield values
            count += 1
            if limit is not None and count >= limit:
                return

    def lookup(self, column: str, value: Any, snapshot_version: int) -> list:
        """Keys of visible rows whose ``column`` equals ``value``.

        Uses the secondary index when one exists, otherwise falls back to a
        scan (counted in :attr:`scan_fallbacks` and logged once per column,
        so silently slow workloads are diagnosable).  Candidates from the
        index are re-checked against the snapshot (the index covers all
        historical values).
        """
        index = self._indexes.get(column)
        if index is not None:
            candidates = index.get(value)
            if not candidates:
                return []
            keys = []
            chains = self._chains
            for key in candidates:
                chain = chains.get(key)
                version = chain.visible_at(snapshot_version) if chain is not None else None
                if version is not None and version.values.get(column) == value:
                    keys.append(key)
            if self._mixed_keys:
                return sorted(keys, key=_sort_token)
            return sorted(keys)
        if column not in self.schema.column_names:
            raise SchemaError(f"table {self.schema.name!r} has no column {column!r}")
        self.scan_fallbacks += 1
        if column not in self._fallback_logged:
            self._fallback_logged.add(column)
            _logger.warning(
                "table %r: lookup on unindexed column %r fell back to an "
                "O(n) scan; declare a secondary index if this path is hot",
                self.schema.name,
                column,
            )
        return [
            row[self.schema.primary_key]
            for row in self.scan(snapshot_version, lambda r: r.get(column) == value)
        ]

    def count(self, snapshot_version: int) -> int:
        """Number of visible rows at ``snapshot_version``."""
        return sum(
            1 for chain in self._chains.values() if chain.exists_at(snapshot_version)
        )

    # -- writes -----------------------------------------------------------
    def apply_op(self, op: WriteOp, commit_version: int) -> None:
        """Install one committed mutation at ``commit_version``.

        Called by the engine on local commit and on refresh application;
        the certifier's total order guarantees increasing commit versions
        per chain.
        """
        if op.table != self.schema.name:
            raise SchemaError(
                f"op for table {op.table!r} applied to {self.schema.name!r}"
            )
        chain = self._chains.get(op.key)
        if chain is None:
            chain = self._chains[op.key] = VersionChain()
            self._note_key(op.key)
        elif chain.frozen:
            chain = self._chains[op.key] = chain.copy()
        if op.kind is OpKind.DELETE:
            chain.append(RowVersion(commit_version, None, deleted=True))
            return
        self.schema.validate_row(op.values)
        if self.schema.key_of(op.values) != op.key:
            raise SchemaError(
                f"table {self.schema.name!r}: op key {op.key!r} does not match "
                f"row primary key {self.schema.key_of(op.values)!r}"
            )
        chain.append(RowVersion(commit_version, op.values))
        for column, index in self._indexes.items():
            index.setdefault(op.values[column], set()).add(op.key)

    # -- anti-entropy --------------------------------------------------------
    def latest_states(self):
        """Yield ``(key, values, latest_commit_version, deleted)`` for every
        key ever written — the newest committed image per chain, in key
        order.  Digest recomputation and peer row sync both walk this."""
        for key in self._ordered_keys():
            latest = self._chains[key].latest
            if latest is None:
                continue
            yield key, latest.values, latest.commit_version, latest.deleted

    def replace_rows(self, entries, keep_newer_than: Optional[int] = None) -> int:
        """Online repair: adopt a healthy peer's latest row images.

        ``entries`` is an iterable of ``(key, values, commit_version,
        deleted)`` as produced by :meth:`latest_states`.  With
        ``keep_newer_than`` set, chains whose newest commit version exceeds
        it are kept untouched — this copy already applied writes the peer's
        capture cannot know about (repair under continuous load); every
        other chain is replaced by the peer image.  A row present here but
        absent at the peer (and not newer than the capture) is a phantom
        this copy invented — its chain is dropped.  History below adopted
        images is discarded (the repaired replica serves no reads while
        quarantined, so no snapshot can still need it).  Returns the number
        of keys whose visible state actually differed.
        """
        incoming: dict[Any, RowVersion] = {}
        for key, values, commit_version, deleted in entries:
            incoming[key] = RowVersion(commit_version, values, deleted=deleted)
        kept: dict[Any, VersionChain] = {}
        if keep_newer_than is not None:
            kept = {
                key: chain
                for key, chain in self._chains.items()
                if chain.latest_commit_version > keep_newer_than
            }
        changed = 0
        for key, version in incoming.items():
            if key in kept:
                continue
            current = self._chains.get(key)
            latest = current.latest if current is not None else None
            if (
                latest is None
                or latest.deleted != version.deleted
                or latest.values != version.values
            ):
                changed += 1
        for key in self._chains:
            if key not in incoming and key not in kept:
                changed += 1
        chains: dict[Any, VersionChain] = dict(kept)
        for key, version in incoming.items():
            if key in kept:
                continue
            chain = chains[key] = VersionChain()
            chain.append(version)
        self._chains = chains
        self._sorted_cache = None
        self._key_type = None
        self._mixed_keys = False
        for key in chains:
            self._note_key(key)
        for column in self._indexes:
            self._indexes[column] = {}
        for key, chain in self._chains.items():
            for version in chain.versions():
                if not version.deleted:
                    for column, index in self._indexes.items():
                        index.setdefault(version.values[column], set()).add(key)
        return changed

    # -- maintenance ---------------------------------------------------------
    def vacuum(self, horizon_version: int) -> int:
        """Trim version chains below the snapshot horizon; returns versions
        removed."""
        return sum(chain.vacuum(horizon_version) for chain in self._chains.values())

    def version_count(self) -> int:
        """Total stored versions across all chains (storage footprint)."""
        return sum(len(chain) for chain in self._chains.values())

    def __len__(self) -> int:
        """Number of keys ever written (including tombstoned)."""
        return len(self._chains)


def _sort_token(key: Any) -> tuple:
    """Stable ordering across mixed key types."""
    return (type(key).__name__, key)
