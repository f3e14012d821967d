"""Tests for MVCC row version chains."""

import pytest

from repro.storage import RowVersion, VersionChain


class TestRowVersion:
    def test_values_are_copied(self):
        source = {"id": 1, "v": 2}
        version = RowVersion(1, source)
        source["v"] = 99
        assert version.values["v"] == 2

    def test_tombstone_has_no_values(self):
        version = RowVersion(3, {"id": 1}, deleted=True)
        assert version.values is None
        assert version.deleted


class TestVersionChain:
    def test_empty_chain(self):
        chain = VersionChain()
        assert len(chain) == 0
        assert chain.latest is None
        assert chain.latest_commit_version == 0
        assert chain.visible_at(100) is None

    def test_append_and_read_latest(self):
        chain = VersionChain()
        chain.append(RowVersion(1, {"id": 1, "v": 10}))
        chain.append(RowVersion(3, {"id": 1, "v": 30}))
        assert chain.latest.values["v"] == 30
        assert chain.latest_commit_version == 3

    def test_out_of_order_append_rejected(self):
        chain = VersionChain()
        chain.append(RowVersion(5, {"id": 1}))
        with pytest.raises(ValueError):
            chain.append(RowVersion(5, {"id": 1}))
        with pytest.raises(ValueError):
            chain.append(RowVersion(3, {"id": 1}))

    def test_snapshot_visibility_picks_newest_at_or_below(self):
        chain = VersionChain()
        chain.append(RowVersion(1, {"v": 10}))
        chain.append(RowVersion(5, {"v": 50}))
        chain.append(RowVersion(9, {"v": 90}))
        assert chain.visible_at(0) is None
        assert chain.visible_at(1).values["v"] == 10
        assert chain.visible_at(4).values["v"] == 10
        assert chain.visible_at(5).values["v"] == 50
        assert chain.visible_at(8).values["v"] == 50
        assert chain.visible_at(100).values["v"] == 90

    def test_tombstone_hides_row(self):
        chain = VersionChain()
        chain.append(RowVersion(1, {"v": 10}))
        chain.append(RowVersion(2, None, deleted=True))
        assert chain.visible_at(1).values["v"] == 10
        assert chain.visible_at(2) is None
        assert not chain.exists_at(2)
        assert chain.exists_at(1)

    def test_reinsert_after_delete(self):
        chain = VersionChain()
        chain.append(RowVersion(1, {"v": 10}))
        chain.append(RowVersion(2, None, deleted=True))
        chain.append(RowVersion(3, {"v": 30}))
        assert chain.visible_at(2) is None
        assert chain.visible_at(3).values["v"] == 30

    def test_version_zero_load_is_visible_everywhere(self):
        chain = VersionChain()
        chain.append(RowVersion(0, {"v": 1}))
        assert chain.visible_at(0).values["v"] == 1
        assert chain.visible_at(10).values["v"] == 1

    def test_vacuum_keeps_horizon_version(self):
        chain = VersionChain()
        for version in (1, 3, 5, 7):
            chain.append(RowVersion(version, {"v": version}))
        removed = chain.vacuum(5)
        assert removed == 2  # versions 1 and 3
        assert chain.visible_at(5).values["v"] == 5
        assert chain.visible_at(7).values["v"] == 7

    def test_vacuum_below_first_version_is_noop(self):
        chain = VersionChain()
        chain.append(RowVersion(5, {"v": 5}))
        assert chain.vacuum(3) == 0
        assert chain.vacuum(5) == 0
        assert len(chain) == 1

    def test_vacuum_empty_chain(self):
        assert VersionChain().vacuum(10) == 0


class TestFrozenChain:
    """A frozen chain is shared between tables: it must refuse every
    mutation, so a write path that forgot to take a private copy fails
    loudly instead of leaking into sibling replicas."""

    def make(self):
        chain = VersionChain()
        chain.append(RowVersion(0, {"v": 0}))
        chain.frozen = True
        return chain

    def test_append_raises(self):
        chain = self.make()
        with pytest.raises(RuntimeError):
            chain.append(RowVersion(1, {"v": 1}))
        assert len(chain) == 1

    def test_replace_latest_raises(self):
        with pytest.raises(RuntimeError):
            self.make().replace_latest(RowVersion(0, {"v": 9}))

    def test_reads_and_noop_vacuum_still_work(self):
        chain = self.make()
        assert chain.visible_at(5).values == {"v": 0}
        assert chain.vacuum(5) == 0  # one version: nothing to trim

    def test_copy_is_private_and_shares_the_versions(self):
        chain = self.make()
        twin = chain.copy()
        twin.append(RowVersion(1, {"v": 1}))
        assert not twin.frozen
        assert len(chain) == 1 and len(twin) == 2
        assert twin.visible_at(0) is chain.visible_at(0)

    def test_replace_latest_keeps_the_commit_version(self):
        chain = self.make().copy()
        chain.replace_latest(RowVersion(0, {"v": 9}))
        assert chain.latest.values == {"v": 9}
        with pytest.raises(ValueError):
            chain.replace_latest(RowVersion(3, {"v": 9}))
