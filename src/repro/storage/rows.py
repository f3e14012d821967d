"""Row versions for multiversion concurrency control.

A row's committed history is a *persistent* newest-first chain: the table
maps each primary key to the newest :class:`RowVersion` and every version
links to its predecessor through ``prev``.  A transaction reading at
snapshot version *v* walks from the head to the first version whose commit
version is ``<= v``; a tombstone (``deleted=True``) makes the row invisible
from that point on.

A version is immutable once a table has published it, which is what lets
one object serve the whole cluster: every replica installs the same
after-images in the same order, so their chains *are* the same nodes (see
``VersionedTable.apply_op``).  Nothing here ever edits a node — a commit
puts a new head in front.  Nothing trims a chain either: every certified
op in the certifier's decision log keeps its node reachable, so there is
no history a garbage collector could free (DESIGN.md D26).

The functions below take a chain by its head (``None`` = empty chain).
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Optional

__all__ = ["RowVersion"]


class RowVersion:
    """One committed version of a row, linked to the version it replaced.

    ``values`` is the full row at that version, *adopted, not copied*: the
    caller hands over a dict nobody mutates afterwards (a certified
    ``WriteOp`` copies the image once when it is captured, and committed
    rows are read-only for everyone); ``deleted`` marks a tombstone, whose
    ``values`` is None.  Commit versions strictly decrease along ``prev`` —
    the proxy applies commits in the certifier's total order, and the
    constructor refuses anything else.
    """

    __slots__ = ("commit_version", "values", "deleted", "prev")

    def __init__(
        self,
        commit_version: int,
        values: Optional[Mapping[str, Any]],
        deleted: bool = False,
        prev: Optional["RowVersion"] = None,
    ):
        if prev is not None and commit_version <= prev.commit_version:
            raise ValueError(
                f"out-of-order commit version {commit_version} "
                f"(chain is at {prev.commit_version})"
            )
        self.commit_version = commit_version
        self.values = None if deleted else values
        self.deleted = deleted
        self.prev = prev

    def __repr__(self) -> str:
        return (
            f"RowVersion(commit_version={self.commit_version!r}, "
            f"values={self.values!r}, deleted={self.deleted!r})"
        )


def versions(head: Optional[RowVersion]) -> Iterator[RowVersion]:
    """Iterate a chain's committed versions, newest first."""
    while head is not None:
        yield head
        head = head.prev


def visible_at(head: Optional[RowVersion], snapshot_version: int) -> Optional[RowVersion]:
    """The version a snapshot at ``snapshot_version`` observes.

    Returns ``None`` when the row does not exist in that snapshot (never
    inserted yet, or tombstoned).  One comparison for the newest version;
    a read at an old snapshot walks past every newer version first.
    """
    while head is not None and head.commit_version > snapshot_version:
        head = head.prev
    return None if head is None or head.deleted else head
