"""Order-independent state digests — the anti-entropy primitive.

Each table's digest is the XOR of a 64-bit content hash per *visible latest*
row, keyed by ``(table, key, row-content)``.  XOR makes the digest

* **incremental** — applying a writeset updates it in O(|writeset|): XOR the
  replaced row images out, XOR the new images in (a per-slot hash cache means
  only the new image is ever hashed);
* **order-independent** — two replicas that applied the same set of commits
  hold the same digest even if they installed independent commits in
  different interleavings;
* **vacuum-invariant** — vacuum only trims superseded history, never the
  newest visible image, so the digest is untouched by garbage collection.

Two digests exist per table: the cheap incremental one maintained on the
apply path, and :meth:`~repro.storage.database.Database.recompute_digests`,
the full-scan oracle that rereads every row.  They agree unless the bits
under the incremental bookkeeping rotted — which is exactly the divergence
class a *deep* scrub detects (see ``middleware/scrubber.py``).

:class:`DigestTracker` is the certifier-side shadow: it maintains the same
per-table digests purely from the stream of certified writesets (after-images
travel in the writeset, so no row storage is needed beyond the per-slot hash
cache) and keeps a change-point history so a replica's digest vector can be
checked *at the replica's own pinned version* — apples-to-apples regardless
of how far each replica has caught up.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Mapping, Optional

from .writeset import OpKind, WriteSet

__all__ = ["row_content_hash", "DigestTracker"]

#: 64-bit FNV-1a constants — the dependency-free fallback content hash for
#: rows whose column values are unhashable.  The digest is an integrity
#: check against *accidental* divergence (lost or doubled applies, bit
#: rot), not an adversary-proof authenticator.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    return h


def row_content_hash(table: str, key: Any, values: Mapping[str, Any]) -> int:
    """64-bit content hash of one visible row, keyed by table, key and the
    full row image.  ``frozenset`` canonicalisation makes it independent of
    column insertion order.

    The fast path rides CPython's C-level tuple hash, which keeps digest
    maintenance within its ≤10% budget on the writeset-apply hot path
    (``benchmarks/bench_scrub.py``).  That hash is randomised per process —
    fine here, because digests are process-local integrity checks: every
    replica and the certifier's tracker hash with the same seed, digests
    travel only over the simulated network and are never persisted.  Rows
    with unhashable column values fall back to a deterministic FNV-1a over
    a sorted ``repr`` canonical form.
    """
    try:
        h = hash((table, key, frozenset(values.items())))
    except TypeError:  # unhashable column value (e.g. a list) — slow path
        canonical = (
            table, key, tuple(sorted((c, repr(v)) for c, v in values.items()))
        )
        h = _fnv1a(repr(canonical).encode("utf-8"))
    return (h & _MASK) or 1  # never hash to 0 (the XOR identity)


class DigestTracker:
    """Certifier-side digest oracle with a per-table change-point history.

    Feed it every certified writeset (in commit order) and it answers "what
    should table ``t``'s digest be at version ``v``?" for any ``v`` not yet
    truncated — the expectation the scrubber compares replica digests
    against.  A warm standby maintains its own tracker from the decision
    records it tails, so a promoted certifier keeps a live oracle.
    """

    def __init__(self):
        #: (table, key) -> content hash currently folded into the digest
        self._latest: dict[tuple[str, Any], int] = {}
        #: table -> current XOR digest
        self._digests: dict[str, int] = {}
        #: table -> ascending (version, digest-after) change points
        self._history: dict[str, list[tuple[int, int]]] = {}
        #: newest version applied to the tracker
        self.version = 0

    # -- construction --------------------------------------------------------
    @classmethod
    def from_database(cls, database) -> "DigestTracker":
        """Seed a tracker from a populated database at version 0.

        Every replica loads the identical initial data set, so one copy's
        version-0 state seeds the oracle for all of them.
        """
        if database.version != 0:
            raise ValueError(
                "digest tracker must be seeded before the first commit "
                f"(database is at v{database.version})"
            )
        tracker = cls()
        for table in database.table_names:
            digest = 0
            for key, values, _lcv, deleted in database.table(table).latest_states():
                if deleted:
                    continue
                h = row_content_hash(table, key, values)
                tracker._latest[(table, key)] = h
                digest ^= h
            tracker._digests[table] = digest
            tracker._history[table] = [(0, digest)]
        return tracker

    # -- maintenance ---------------------------------------------------------
    def apply(self, writeset: WriteSet, version: int) -> None:
        """Fold one certified writeset in at ``version``.

        O(|writeset|) — the same cost class as certification itself.  A
        commit may be fed as several slices carrying the same version; each
        slice folds in and the change point for that version is updated in
        place.
        """
        if version < self.version:
            raise ValueError(
                f"digest tracker at v{self.version} fed writeset for v{version}"
            )
        touched = set()
        for op in writeset:
            slot = (op.table, op.key)
            digest = self._digests.get(op.table, 0)
            old = self._latest.pop(slot, None)
            if old is not None:
                digest ^= old
            if op.kind is not OpKind.DELETE:
                new = op.content_hash()
                self._latest[slot] = new
                digest ^= new
            self._digests[op.table] = digest
            touched.add(op.table)
        for table in touched:
            history = self._history.setdefault(table, [])
            point = (version, self._digests[table])
            if history and history[-1][0] == version:
                history[-1] = point
            else:
                history.append(point)
        self.version = max(self.version, version)

    def truncate(self, horizon: int) -> int:
        """Drop change points below ``horizon``, keeping the newest at or
        below it (still answerable).  Mirrors decision-log truncation so the
        history cannot grow without bound.  Returns points dropped."""
        dropped = 0
        for table, history in self._history.items():
            idx = bisect_right(history, (horizon, float("inf")))
            if idx > 1:
                del history[: idx - 1]
                dropped += idx - 1
        return dropped

    # -- queries -------------------------------------------------------------
    @property
    def tables(self) -> tuple[str, ...]:
        return tuple(self._history)

    def digest_at(self, table: str, version: int) -> Optional[int]:
        """Table ``t``'s expected digest at ``version`` (None when the
        history for that version has been truncated away)."""
        history = self._history.get(table)
        if not history:
            return 0 if version >= 0 else None
        idx = bisect_right(history, (version, float("inf")))
        if idx == 0:
            return None  # truncated past the asked-for version
        return history[idx - 1][1]

    def expected_at(self, version: int) -> Optional[dict[str, int]]:
        """The full per-table digest vector expected at ``version`` (None
        when any table's history no longer reaches back that far)."""
        vector: dict[str, int] = {}
        for table in self._history:
            digest = self.digest_at(table, version)
            if digest is None:
                return None
            vector[table] = digest
        return vector

    def __repr__(self) -> str:
        return f"<DigestTracker v{self.version} tables={sorted(self._history)}>"
