"""Tests for MVCC row versions and the newest-first chains they form."""

import pytest

from repro.storage import OpKind, RowVersion, WriteOp
from repro.storage.rows import vacuumed, versions, visible_at


def chain(*entries):
    """Head of a chain built oldest-first from ``(commit_version, values)``
    entries (``values=None`` appends a tombstone)."""
    head = None
    for commit_version, values in entries:
        head = RowVersion(commit_version, values, deleted=values is None, prev=head)
    return head


def history(head):
    """``(commit_version, values)`` oldest first — what ``chain`` took."""
    return [(v.commit_version, v.values) for v in versions(head)][::-1]


class TestRowVersion:
    def test_values_are_copied(self):
        """Once, where the image is captured (``WriteOp``); the version
        adopts that private dict instead of copying it a second time."""
        source = {"id": 1, "v": 2}
        op = WriteOp("t", 1, OpKind.INSERT, source)
        version = RowVersion(1, op.values)
        source["v"] = 99
        assert version.values["v"] == 2
        assert version.values is op.values

    def test_tombstone_has_no_values(self):
        version = RowVersion(3, {"id": 1}, deleted=True)
        assert version.values is None
        assert version.deleted


class TestVersionChain:
    def test_empty_chain(self):
        assert list(versions(None)) == []
        assert visible_at(None, 100) is None

    def test_append_and_read_latest(self):
        head = chain((1, {"id": 1, "v": 10}), (3, {"id": 1, "v": 30}))
        assert head.values["v"] == 30
        assert head.commit_version == 3
        assert head.prev.values["v"] == 10 and head.prev.prev is None

    def test_out_of_order_append_rejected(self):
        head = chain((5, {"id": 1}))
        with pytest.raises(ValueError):
            RowVersion(5, {"id": 1}, prev=head)
        with pytest.raises(ValueError):
            RowVersion(3, {"id": 1}, prev=head)

    def test_snapshot_visibility_picks_newest_at_or_below(self):
        head = chain((1, {"v": 10}), (5, {"v": 50}), (9, {"v": 90}))
        assert visible_at(head, 0) is None
        assert visible_at(head, 1).values["v"] == 10
        assert visible_at(head, 4).values["v"] == 10
        assert visible_at(head, 5).values["v"] == 50
        assert visible_at(head, 8).values["v"] == 50
        assert visible_at(head, 100).values["v"] == 90

    def test_tombstone_hides_row(self):
        head = chain((1, {"v": 10}), (2, None))
        assert visible_at(head, 1).values["v"] == 10
        assert visible_at(head, 2) is None

    def test_reinsert_after_delete(self):
        head = chain((1, {"v": 10}), (2, None), (3, {"v": 30}))
        assert visible_at(head, 2) is None
        assert visible_at(head, 3).values["v"] == 30

    def test_version_zero_load_is_visible_everywhere(self):
        head = chain((0, {"v": 1}))
        assert visible_at(head, 0).values["v"] == 1
        assert visible_at(head, 10).values["v"] == 1

    def test_vacuum_keeps_horizon_version(self):
        head = chain(*((version, {"v": version}) for version in (1, 3, 5, 7)))
        trimmed, removed = vacuumed(head, 5)
        assert removed == 2  # versions 1 and 3
        assert visible_at(trimmed, 5).values["v"] == 5
        assert visible_at(trimmed, 7).values["v"] == 7
        assert visible_at(trimmed, 4) is None

    def test_vacuum_below_first_version_is_noop(self):
        head = chain((5, {"v": 5}))
        assert vacuumed(head, 3) == (head, 0)
        assert vacuumed(head, 5) == (head, 0)

    def test_vacuum_empty_chain(self):
        assert vacuumed(None, 10) == (None, 0)


class TestFrozenChain:
    """An installed version is shared by every table that installed it, so
    nothing may edit one: a commit puts a new head in front of it and a
    vacuum that trims rebuilds what it keeps.  Whoever still holds the old
    head keeps reading exactly what it read before."""

    def test_reads_and_noop_vacuum_still_work(self):
        head = chain((0, {"v": 0}))
        assert visible_at(head, 5).values == {"v": 0}
        trimmed, removed = vacuumed(head, 5)  # one version: nothing to trim
        assert removed == 0 and trimmed is head  # ... and still shared

    def test_append_leaves_the_shared_head_untouched(self):
        shared = chain((0, {"v": 0}))
        left = RowVersion(1, {"v": 1}, prev=shared)
        right = RowVersion(2, {"v": 2}, prev=shared)
        assert history(shared) == [(0, {"v": 0})]
        assert history(left) == [(0, {"v": 0}), (1, {"v": 1})]
        assert history(right) == [(0, {"v": 0}), (2, {"v": 2})]
        assert left.prev is right.prev is shared

    def test_copy_is_private_and_shares_the_versions(self):
        """A trimming vacuum returns a private copy of the kept prefix over
        the same row images; the chain it was cut from is as it was."""
        head = chain((1, {"v": 1}), (2, {"v": 2}), (3, {"v": 3}))
        before = history(head)
        trimmed, removed = vacuumed(head, 2)
        assert removed == 1
        assert history(head) == before
        assert history(trimmed) == before[1:]
        assert all(
            new is not old and new.values is old.values
            for new, old in zip(versions(trimmed), versions(head))
        )
