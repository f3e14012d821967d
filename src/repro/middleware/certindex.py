"""Last-writer certification index — indexed conflict detection.

The reference way to certify re-scans every committed writeset in the
conflict window ``(snapshot, V_commit]`` per request, which is
O(window × rows) and explodes exactly when stale snapshots matter most.
This module provides the indexed alternative the certifier runs on: a
``(table, key) → writer versions`` map plus a per-table *max writer
version* for a fast-path miss, making certification O(|writeset| +
|readset|) regardless of how stale the requesting snapshot is.

The window scan lives on beside it as :func:`scan_first_conflict` — the
specification the index is held to.  Nothing in the certifier calls it; the
differential tests and ``benchmarks/bench_certifier_scaling.py`` do,
through a small :class:`~.certifier.Certifier` subclass that overrides
``_find_conflict``.

Design constraints (enforced by the differential tests):

* **Byte-identical decisions.**  The scan reports the *first* committed
  version in the window that conflicts.  A pure last-writer map cannot
  reproduce that (a key overwritten at v1 and v2 would report v2, the scan
  v1), so the index keeps each key's ascending writer-version list and
  answers "first writer after the snapshot" with a binary search; the
  minimum over the request's key-set equals the scan's answer exactly.
  The newest entry of a key's list *is* the last-writer version
  (:meth:`~CertificationIndex.last_writer`).
* **Truncation lockstep.**  The certifier's log truncation drops the
  window's prefix; :meth:`~CertificationIndex.truncate_to` drops the same
  versions from the per-key lists (driven by the dropped entries, so the
  cost is O(ops dropped), not O(index)).  Per-table maxima are upper
  bounds and never shrink — a stale maximum only costs a key probe, never
  a wrong decision.
* **Rebuildability.**  :meth:`~CertificationIndex.from_log` reconstructs
  the index from any :class:`~.durability.DecisionLog` suffix, which is
  how a promoted standby (whose log is the tailed state-machine copy) and
  :meth:`~.certifier.Certifier.restore_state` obtain theirs.

Probe counters (:attr:`key_probes`, :attr:`table_probes`) feed the
``bench_certifier_scaling`` benchmark and the CI perf-smoke assertion —
row-comparison counts are deterministic where wall-clock is not.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Iterable, Optional

__all__ = ["CertificationIndex", "scan_first_conflict"]


class CertificationIndex:
    """``(table, key) → ascending committed writer versions`` over the
    un-truncated conflict window, with per-table max-writer fast path."""

    __slots__ = ("_writers", "_table_max", "key_probes", "table_probes")

    def __init__(self):
        #: (table, key) -> strictly ascending list of committed versions
        self._writers: dict[tuple[str, Any], list[int]] = {}
        #: table -> max version that ever wrote it (upper bound, never GC'd)
        self._table_max: dict[str, int] = {}
        #: per-key probes performed by :meth:`first_conflict`
        self.key_probes = 0
        #: per-table fast-path checks performed by :meth:`first_conflict`
        self.table_probes = 0

    # -- inspection ---------------------------------------------------------
    def __len__(self) -> int:
        """Number of distinct keys currently indexed."""
        return len(self._writers)

    @property
    def probes(self) -> int:
        """Total row comparisons performed (key + table probes)."""
        return self.key_probes + self.table_probes

    def last_writer(self, table: str, key: Any) -> int:
        """Newest indexed version that wrote ``(table, key)`` (0 = none)."""
        versions = self._writers.get((table, key))
        return versions[-1] if versions else 0

    def table_max(self, table: str) -> int:
        """Max writer version recorded for ``table`` (0 = never written)."""
        return self._table_max.get(table, 0)

    # -- maintenance --------------------------------------------------------
    def record(self, commit_version: int, writeset) -> None:
        """Index a newly committed writeset at ``commit_version``.

        Versions are handed out in increasing order by the certifier, so a
        plain append keeps every per-key list sorted.
        """
        table_max = self._table_max
        writers = self._writers
        for slot in writeset.slots:
            versions = writers.get(slot)
            if versions is None:
                writers[slot] = [commit_version]
            else:
                versions.append(commit_version)
            table = slot[0]
            if commit_version > table_max.get(table, 0):
                table_max[table] = commit_version

    def truncate_to(self, horizon: int, dropped_entries: Iterable) -> None:
        """Garbage-collect in lockstep with a log truncation to ``horizon``.

        ``dropped_entries`` are the log entries being truncated away; only
        their keys are visited, so GC costs O(ops dropped) amortised.
        """
        writers = self._writers
        for entry in dropped_entries:
            for slot in entry.writeset.slots:
                versions = writers.get(slot)
                if not versions:
                    continue
                cut = bisect_right(versions, horizon)
                if not cut:
                    continue
                if cut == len(versions):
                    del writers[slot]
                else:
                    del versions[:cut]

    @classmethod
    def from_log(cls, log) -> "CertificationIndex":
        """Rebuild the index over a decision log's un-truncated suffix
        (standby promotion, state restore, crash recovery)."""
        index = cls()
        for entry in log:
            index.record(entry.commit_version, entry.writeset)
        return index

    # -- conflict detection -------------------------------------------------
    def first_conflict(
        self, slots: Iterable[tuple[str, Any]], snapshot_version: int
    ) -> Optional[int]:
        """First committed version after ``snapshot_version`` that wrote any
        of ``slots`` — exactly the reference scan's answer, in
        O(|slots| log h) with h the per-key history length.

        The per-table max-writer check skips every key of a table that has
        not been written since the snapshot without touching the key map —
        the fast-path miss that makes fresh-snapshot certification nearly
        free.
        """
        best: Optional[int] = None
        table_live: dict[str, bool] = {}
        writers = self._writers
        table_max = self._table_max
        for slot in slots:
            table = slot[0]
            live = table_live.get(table)
            if live is None:
                self.table_probes += 1
                live = table_max.get(table, 0) > snapshot_version
                table_live[table] = live
            if not live:
                continue
            self.key_probes += 1
            versions = writers.get(slot)
            if not versions or versions[-1] <= snapshot_version:
                continue
            version = versions[bisect_right(versions, snapshot_version)]
            if best is None or version < best:
                best = version
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CertificationIndex keys={len(self._writers)} "
            f"tables={len(self._table_max)}>"
        )


def scan_first_conflict(
    log, slots: Iterable[tuple[str, Any]], snapshot_version: int
) -> tuple[Optional[int], int]:
    """Reference conflict check — the window scan the index is held to.

    Scans ``log``'s window ``(snapshot_version, last_version]`` for the
    first committed writeset that wrote any of ``slots`` (the request's
    written — and, in serializable mode, read — ``(table, key)`` pairs).
    Returns ``(version | None, rows_compared)``; every committed row looked
    at counts as one comparison, so the cost is O(window × rows) where
    :meth:`CertificationIndex.first_conflict` pays O(|slots|).  The caller
    guarantees the window starts at or above the log's truncation point.
    """
    slots = frozenset(slots)
    compared = 0
    for version in range(snapshot_version + 1, log.last_version + 1):
        for op in log.entry(version).writeset:
            compared += 1
            if (op.table, op.key) in slots:
                return version, compared
    return None, compared
