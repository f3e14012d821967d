"""Versioned table: primary index of version chains plus secondary indexes.

A :class:`VersionedTable` stores every committed version of every row (until
vacuumed) and answers snapshot reads and scans.  Secondary indexes map a
column value to the set of keys that *ever* held that value; lookups filter
candidates through snapshot visibility, so index reads are as consistent as
primary reads.

The primary index maps each key to the *newest* :class:`RowVersion`; older
versions hang off it through ``prev`` (``storage.rows``).  Versions are
immutable once installed, so tables share them freely: a
:meth:`VersionedTable.clone` shares even the key → head map and the index
sets until its first write, and the replicas of a cluster, which install
the same certified ops in the same order, end up holding one node per
committed row write between them (:meth:`VersionedTable.apply_op`).  A
table that diverges — peer resync, vacuum, injected corruption — gets
private nodes from then on; nothing it does can reach a sibling.
"""

from __future__ import annotations

import logging
from typing import Any, Callable, Iterator, Mapping, Optional

from .errors import SchemaError
from .rows import RowVersion, vacuumed, versions, visible_at
from .schema import TableSchema
from .writeset import OpKind, WriteOp

__all__ = ["VersionedTable"]

_logger = logging.getLogger(__name__)


class VersionedTable:
    """All committed state of one table, multiversioned."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        #: key -> newest committed version (older ones through ``prev``)
        self._chains: dict[Any, RowVersion] = {}
        self._indexes: dict[str, dict[Any, set]] = {col: {} for col in schema.indexes}
        #: ``_chains`` and ``_indexes`` may be a clone sibling's too: copy
        #: them before the first in-place mutation (:meth:`_own`)
        self._shared = False
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
        """A twin of this table over the same (immutable) row versions.

        The twin shares even what a write mutates in place (the key → head
        map, the index sets): both tables are marked shared, and each takes
        a private copy just before its own first mutation (:meth:`_own`), so
        a table that is never written exists once however many replicas
        hold it.  The key-order snapshot is shared as is: it is only ever
        replaced, never edited.
        """
        twin = VersionedTable(self.schema)
        twin._chains = self._chains
        twin._indexes = self._indexes
        self._shared = twin._shared = True
        twin._sorted_cache = self._sorted_cache
        twin._key_type = self._key_type
        twin._mixed_keys = self._mixed_keys
        twin.scan_fallbacks = self.scan_fallbacks
        twin._fallback_logged = set(self._fallback_logged)
        return twin

    def _own(self) -> None:
        """Take private copies of the key → head map and the index sets a
        clone shares (called by every in-place mutation while shared)."""
        self._chains = dict(self._chains)
        self._indexes = {
            column: {value: set(keys) for value, keys in index.items()}
            for column, index in self._indexes.items()
        }
        self._shared = False

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
        # Inlined rows.visible_at (hot read path); a tombstone's values
        # are None already.
        node = self._chains.get(key)
        while node is not None and node.commit_version > snapshot_version:
            node = node.prev
        return None if node is None else node.values

    def exists(self, key: Any, snapshot_version: int) -> bool:
        """True when ``key`` is visible at ``snapshot_version``."""
        return visible_at(self._chains.get(key), snapshot_version) is not None

    def latest(self, key: Any) -> Optional[RowVersion]:
        """Newest committed version of ``key``, tombstone or not (None if
        never written)."""
        return self._chains.get(key)

    def latest_commit_version(self, key: Any) -> int:
        """Newest commit version that wrote ``key`` (0 if never written)."""
        head = self._chains.get(key)
        return 0 if head is None else head.commit_version

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
            version = visible_at(chains[key], snapshot_version)
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
                version = visible_at(chains.get(key), snapshot_version)
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
            1
            for head in self._chains.values()
            if visible_at(head, snapshot_version) is not None
        )

    # -- writes -----------------------------------------------------------
    def apply_op(self, op: WriteOp, commit_version: int) -> None:
        """Install one committed mutation at ``commit_version``.

        Called by the engine on local commit and on refresh application;
        the certifier's total order guarantees increasing commit versions
        per chain.

        The first table to install ``op`` validates the row, builds the
        :class:`RowVersion` over the op's own after-image and leaves it on
        the op (``WriteOp._image``).  Every later table in the same state —
        its head is the node that image was built on, same commit version —
        installs that very node: one image per committed row write
        cluster-wide.  A table whose head differs builds its own node, so
        whatever made it differ stays here.
        """
        if op.table != self.schema.name:
            raise SchemaError(
                f"op for table {op.table!r} applied to {self.schema.name!r}"
            )
        if self._shared:
            self._own()
        key = op.key
        head = self._chains.get(key)
        image = op._image
        if (
            image is None
            or image.prev is not head
            or image.commit_version != commit_version
        ):
            image = self._build_image(op, commit_version, head)
        if head is None:
            self._note_key(key)
        self._chains[key] = image
        if self._indexes and not image.deleted:
            self._index_row(key, image.values)

    def load_row(self, values: Mapping[str, Any]) -> None:
        """Install one row of the initial data set at version 0: validated as
        :meth:`apply_op` validates an insert, a present key refused by the
        :class:`RowVersion` order check, and no op built."""
        key = self.schema.key_of(values)
        self.schema.validate_row(values)
        if self._shared:
            self._own()
        self._chains[key] = RowVersion(0, dict(values), False, self._chains.get(key))
        self._note_key(key)
        if self._indexes:
            self._index_row(key, values)

    def _build_image(
        self, op: WriteOp, commit_version: int, head: Optional[RowVersion]
    ) -> RowVersion:
        """Validate ``op`` and build its row version on top of ``head``."""
        if op.kind is OpKind.DELETE:
            image = RowVersion(commit_version, None, True, head)
        else:
            self.schema.validate_row(op.values)
            if self.schema.key_of(op.values) != op.key:
                raise SchemaError(
                    f"table {self.schema.name!r}: op key {op.key!r} does not match "
                    f"row primary key {self.schema.key_of(op.values)!r}"
                )
            image = RowVersion(commit_version, op.values, False, head)
        if op._image is None:
            object.__setattr__(op, "_image", image)  # frozen dataclass
        return image

    def _index_row(self, key: Any, values: Mapping[str, Any]) -> None:
        for column, index in self._indexes.items():
            keys = index.get(values[column])
            if keys is None:
                index[values[column]] = {key}
            else:
                keys.add(key)

    def swap_latest(self, key: Any, values: Mapping[str, Any]) -> None:
        """Swap the newest image of ``key`` for ``values`` at the same
        commit version (the corruption fault model's bit rot; never a
        commit).  The installed node is left alone — siblings may hold it —
        and a private one takes its place here."""
        head = self._chains[key]
        if self._shared:
            self._own()
        self._chains[key] = RowVersion(head.commit_version, values, prev=head.prev)

    # -- anti-entropy --------------------------------------------------------
    def latest_states(self):
        """Yield ``(key, values, latest_commit_version, deleted)`` for every
        key ever written — the newest committed image per chain, in key
        order.  Digest recomputation and peer row sync both walk this."""
        chains = self._chains
        for key in self._ordered_keys():
            latest = chains[key]
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
        chains: dict[Any, RowVersion] = {}
        if keep_newer_than is not None:
            chains = {
                key: head
                for key, head in self._chains.items()
                if head.commit_version > keep_newer_than
            }
        changed = 0
        for key in self._chains:
            if key not in incoming and key not in chains:
                changed += 1
        for key, version in incoming.items():
            if key in chains:
                continue
            latest = self._chains.get(key)
            if (
                latest is None
                or latest.deleted != version.deleted
                or latest.values != version.values
            ):
                changed += 1
            chains[key] = version
        self._chains = chains
        self._shared = False  # fresh map; the index sets are rebuilt below
        self._sorted_cache = None
        self._key_type = None
        self._mixed_keys = False
        for key in chains:
            self._note_key(key)
        if self._indexes:
            self._indexes = {column: {} for column in self._indexes}
            for key, head in chains.items():
                for version in versions(head):
                    if not version.deleted:
                        self._index_row(key, version.values)
        return changed

    # -- maintenance ---------------------------------------------------------
    def vacuum(self, horizon_version: int) -> int:
        """Trim version chains below the snapshot horizon; returns versions
        removed.  A trimmed chain is this table's own from then on (see
        :func:`~repro.storage.rows.vacuumed`); a vacuum that trims nothing
        leaves a shared map shared."""
        total = 0
        for key, head in self._chains.items():
            trimmed, removed = vacuumed(head, horizon_version)
            if removed:
                if self._shared:
                    self._own()  # the loop goes on over the old map
                self._chains[key] = trimmed  # existing key: safe while iterating
                total += removed
        return total

    def version_count(self) -> int:
        """Total stored versions across all chains (storage footprint)."""
        return sum(1 for head in self._chains.values() for _ in versions(head))

    def __len__(self) -> int:
        """Number of keys ever written (including tombstoned)."""
        return len(self._chains)


def _sort_token(key: Any) -> tuple:
    """Stable ordering across mixed key types."""
    return (type(key).__name__, key)
