"""Row version chains for multiversion concurrency control.

Each primary key maps to a :class:`VersionChain` — the row's committed
versions ordered by commit version.  A transaction reading at snapshot
version *v* sees the newest version whose commit version is ``<= v``; a
version with ``deleted=True`` makes the row invisible from that point on.

Chains are append-mostly: commits append, reads binary-search, and
:meth:`VersionChain.vacuum` trims versions no active snapshot can see.

A chain can be *frozen*: every replica of a cluster starts from the same
version-0 data set, so their tables share one set of chains until a replica
writes a row (``VersionedTable.clone``).  A frozen chain refuses every
mutation; the table swaps in a private :meth:`VersionChain.copy` first.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Mapping, Optional

__all__ = ["RowVersion", "VersionChain"]


class RowVersion:
    """One committed version of a row.

    ``values`` is a private snapshot of the full row at that version
    (copied on construction, never mutated afterwards); ``deleted`` marks
    a tombstone.  A plain slotted class rather than a frozen dataclass:
    one of these is allocated per committed write per replica, and the
    frozen-dataclass ``object.__setattr__`` init shows up in profiles.
    """

    __slots__ = ("commit_version", "values", "deleted")

    def __init__(
        self,
        commit_version: int,
        values: Optional[Mapping[str, Any]],
        deleted: bool = False,
    ):
        self.commit_version = commit_version
        self.values = None if deleted else dict(values or {})
        self.deleted = deleted

    def __repr__(self) -> str:
        return (
            f"RowVersion(commit_version={self.commit_version!r}, "
            f"values={self.values!r}, deleted={self.deleted!r})"
        )


_FROZEN = (
    "mutating a frozen (shared) version chain; the owning table must install "
    "a private copy first"
)


class VersionChain:
    """Committed versions of a single row, ordered by commit version."""

    __slots__ = ("_versions", "_commit_versions", "frozen")

    def __init__(self):
        self._versions: list[RowVersion] = []
        self._commit_versions: list[int] = []
        #: shared between several tables: reads only, any mutation raises
        self.frozen = False

    def copy(self) -> "VersionChain":
        """A private, unfrozen chain over the same (immutable) versions."""
        twin = VersionChain()
        twin._versions = list(self._versions)
        twin._commit_versions = list(self._commit_versions)
        return twin

    def __len__(self) -> int:
        return len(self._versions)

    @property
    def latest(self) -> Optional[RowVersion]:
        """The newest committed version, tombstone or not."""
        return self._versions[-1] if self._versions else None

    @property
    def latest_commit_version(self) -> int:
        """Commit version of the newest entry, 0 when the chain is empty."""
        return self._commit_versions[-1] if self._commit_versions else 0

    def versions(self):
        """Iterate the committed versions, oldest first."""
        return iter(self._versions)

    def append(self, version: RowVersion) -> None:
        """Append a committed version.

        Commit versions must be strictly increasing — the proxy applies
        commits in the certifier's total order, which guarantees this.
        """
        if self.frozen:
            raise RuntimeError(_FROZEN)
        if self._commit_versions and version.commit_version <= self._commit_versions[-1]:
            raise ValueError(
                f"out-of-order commit version {version.commit_version} "
                f"(chain is at {self._commit_versions[-1]})"
            )
        self._versions.append(version)
        self._commit_versions.append(version.commit_version)

    def replace_latest(self, version: RowVersion) -> None:
        """Swap the newest entry for another image at the same commit
        version (the corruption fault model's bit rot; never a commit)."""
        if self.frozen:
            raise RuntimeError(_FROZEN)
        if version.commit_version != self._commit_versions[-1]:
            raise ValueError(
                f"replacement is at v{version.commit_version}, "
                f"chain is at v{self._commit_versions[-1]}"
            )
        self._versions[-1] = version

    def visible_at(self, snapshot_version: int) -> Optional[RowVersion]:
        """The version a snapshot at ``snapshot_version`` observes.

        Returns ``None`` when the row does not exist in that snapshot
        (never inserted yet, or tombstoned).
        """
        idx = bisect_right(self._commit_versions, snapshot_version)
        if idx == 0:
            return None
        version = self._versions[idx - 1]
        return None if version.deleted else version

    def exists_at(self, snapshot_version: int) -> bool:
        """True when the row is visible in the given snapshot."""
        return self.visible_at(snapshot_version) is not None

    def vacuum(self, horizon_version: int) -> int:
        """Drop versions superseded before ``horizon_version``.

        Keeps the newest version at-or-below the horizon (still readable by
        a snapshot at the horizon) plus everything newer.  Returns the number
        of versions removed.
        """
        idx = bisect_right(self._commit_versions, horizon_version)
        if idx <= 1:
            return 0
        if self.frozen:
            raise RuntimeError(_FROZEN)
        removed = idx - 1
        del self._versions[:removed]
        del self._commit_versions[:removed]
        return removed
