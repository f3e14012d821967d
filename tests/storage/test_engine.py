"""Tests for the storage engine's snapshot-isolation semantics."""

import pytest

from repro.storage import (
    DuplicateKeyError,
    TransactionStateError,
    UnknownRowError,
    WriteConflictError,
)


def seed_row(engine, key=1, v=10, table="t"):
    txn = engine.begin()
    engine.insert(txn, table, {"id": key, "v": v})
    return engine.commit(txn)


class TestBegin:
    def test_begin_defaults_to_latest(self, engine):
        seed_row(engine)
        txn = engine.begin()
        assert txn.snapshot_version == 1

    def test_begin_on_older_snapshot(self, engine):
        seed_row(engine, 1)
        seed_row(engine, 2)
        txn = engine.begin(snapshot_version=1)
        assert engine.read(txn, "t", 1) is not None
        assert engine.read(txn, "t", 2) is None

    def test_begin_on_future_snapshot_rejected(self, engine):
        with pytest.raises(TransactionStateError):
            engine.begin(snapshot_version=5)

    def test_begin_on_negative_snapshot_rejected(self, engine):
        with pytest.raises(TransactionStateError):
            engine.begin(snapshot_version=-1)

    def test_active_transactions_tracked(self, engine):
        t1 = engine.begin()
        t2 = engine.begin()
        assert set(engine.active_transactions) == {t1, t2}
        engine.abort(t1)
        assert set(engine.active_transactions) == {t2}


class TestSnapshotReads:
    def test_transaction_does_not_see_later_commits(self, engine):
        seed_row(engine, 1, 10)
        reader = engine.begin()
        writer = engine.begin()
        engine.update(writer, "t", 1, {"v": 99})
        engine.commit(writer)
        assert engine.read(reader, "t", 1)["v"] == 10  # snapshot stability

    def test_read_your_own_writes(self, engine):
        seed_row(engine, 1, 10)
        txn = engine.begin()
        engine.update(txn, "t", 1, {"v": 42})
        assert engine.read(txn, "t", 1)["v"] == 42

    def test_read_your_own_delete(self, engine):
        seed_row(engine, 1, 10)
        txn = engine.begin()
        engine.delete(txn, "t", 1)
        assert engine.read(txn, "t", 1) is None

    def test_read_required_raises(self, engine):
        txn = engine.begin()
        with pytest.raises(UnknownRowError):
            engine.read_required(txn, "t", 404)

    def test_repeatable_reads(self, engine):
        seed_row(engine, 1, 10)
        reader = engine.begin()
        first = engine.read(reader, "t", 1)
        writer = engine.begin()
        engine.update(writer, "t", 1, {"v": 50})
        engine.commit(writer)
        second = engine.read(reader, "t", 1)
        assert first == second


class TestScanAndLookup:
    def test_scan_merges_own_writes(self, engine):
        seed_row(engine, 1, 10)
        txn = engine.begin()
        engine.insert(txn, "t", {"id": 2, "v": 20})
        rows = engine.scan(txn, "t")
        assert [r["id"] for r in rows] == [1, 2]

    def test_scan_hides_own_deletes(self, engine):
        seed_row(engine, 1, 10)
        seed_row(engine, 2, 20)
        txn = engine.begin()
        engine.delete(txn, "t", 1)
        rows = engine.scan(txn, "t")
        assert [r["id"] for r in rows] == [2]

    def test_scan_with_predicate_and_limit(self, engine):
        for key in range(1, 6):
            seed_row(engine, key, key)
        txn = engine.begin()
        rows = engine.scan(txn, "t", predicate=lambda r: r["v"] >= 2, limit=2)
        assert [r["v"] for r in rows] == [2, 3]

    def test_lookup_merges_own_writes(self, engine):
        seed_row(engine, 1, 10)
        txn = engine.begin()
        engine.insert(txn, "t", {"id": 2, "v": 10})
        engine.update(txn, "t", 1, {"v": 99})
        assert engine.lookup(txn, "t", "v", 10) == [2]
        assert engine.lookup(txn, "t", "v", 99) == [1]


class TestWrites:
    def test_insert_duplicate_rejected(self, engine):
        seed_row(engine, 1)
        txn = engine.begin()
        with pytest.raises(DuplicateKeyError):
            engine.insert(txn, "t", {"id": 1, "v": 2})

    def test_insert_duplicate_of_own_write_rejected(self, engine):
        txn = engine.begin()
        engine.insert(txn, "t", {"id": 1, "v": 1})
        with pytest.raises(DuplicateKeyError):
            engine.insert(txn, "t", {"id": 1, "v": 2})

    def test_insert_after_concurrent_delete_visible_in_snapshot(self, engine):
        """A row deleted by a *later* committed txn is still visible to an
        older snapshot, so inserting it again is a duplicate there."""
        seed_row(engine, 1)
        old = engine.begin()
        deleter = engine.begin()
        engine.delete(deleter, "t", 1)
        engine.commit(deleter)
        with pytest.raises(DuplicateKeyError):
            engine.insert(old, "t", {"id": 1, "v": 2})

    def test_update_missing_row_rejected(self, engine):
        txn = engine.begin()
        with pytest.raises(UnknownRowError):
            engine.update(txn, "t", 404, {"v": 1})

    def test_update_merges_changes(self, engine):
        seed_row(engine, 1, 10)
        txn = engine.begin()
        engine.update(txn, "t", 1, {"v": 20})
        committed = engine.commit(txn)
        check = engine.begin()
        row = engine.read(check, "t", 1)
        assert row == {"id": 1, "v": 20}
        assert committed == 2

    def test_primary_key_update_rejected(self, engine):
        seed_row(engine, 1)
        txn = engine.begin()
        with pytest.raises(TransactionStateError):
            engine.update(txn, "t", 1, {"id": 2})

    def test_delete_missing_row_rejected(self, engine):
        txn = engine.begin()
        with pytest.raises(UnknownRowError):
            engine.delete(txn, "t", 404)


class TestFirstCommitterWins:
    def test_concurrent_writers_conflict(self, engine):
        seed_row(engine, 1, 10)
        t1 = engine.begin()
        t2 = engine.begin()
        engine.update(t1, "t", 1, {"v": 11})
        engine.update(t2, "t", 1, {"v": 12})
        engine.commit(t1)
        with pytest.raises(WriteConflictError):
            engine.commit(t2)
        assert not t2.is_active
        assert engine.abort_count == 1

    def test_sequential_writers_do_not_conflict(self, engine):
        seed_row(engine, 1, 10)
        t1 = engine.begin()
        engine.update(t1, "t", 1, {"v": 11})
        engine.commit(t1)
        t2 = engine.begin()
        engine.update(t2, "t", 1, {"v": 12})
        engine.commit(t2)  # no conflict: t2's snapshot includes t1

    def test_disjoint_writes_do_not_conflict(self, engine):
        seed_row(engine, 1)
        seed_row(engine, 2)
        t1 = engine.begin()
        t2 = engine.begin()
        engine.update(t1, "t", 1, {"v": 100})
        engine.update(t2, "t", 2, {"v": 200})
        engine.commit(t1)
        engine.commit(t2)

    def test_write_skew_is_permitted(self, two_table_engine):
        """SI famously allows write skew: both transactions read both rows
        and write disjoint rows — both commit (H3 of the paper)."""
        engine = two_table_engine
        for table in ("a", "b"):
            txn = engine.begin()
            engine.insert(txn, table, {"id": 1, "v": 0})
            engine.commit(txn)
        t1 = engine.begin()
        t2 = engine.begin()
        assert engine.read(t1, "a", 1)["v"] == 0
        assert engine.read(t1, "b", 1)["v"] == 0
        assert engine.read(t2, "a", 1)["v"] == 0
        assert engine.read(t2, "b", 1)["v"] == 0
        engine.update(t1, "a", 1, {"v": 1})
        engine.update(t2, "b", 1, {"v": 1})
        assert engine.commit(t1) is not None
        assert engine.commit(t2) is not None

    def test_read_only_commit_consumes_no_version(self, engine):
        seed_row(engine)
        txn = engine.begin()
        engine.read(txn, "t", 1)
        assert engine.commit(txn) is None
        assert engine.version == 1


class TestCertifiedCommit:
    def test_commit_certified_at_assigned_version(self, engine):
        txn = engine.begin()
        engine.insert(txn, "t", {"id": 1, "v": 1})
        assert engine.commit_certified(txn, 1) == 1
        assert engine.version == 1

    def test_commit_certified_read_only_rejected(self, engine):
        txn = engine.begin()
        with pytest.raises(TransactionStateError):
            engine.commit_certified(txn, 1)

    def test_commit_read_only_with_writes_rejected(self, engine):
        txn = engine.begin()
        engine.insert(txn, "t", {"id": 1, "v": 1})
        with pytest.raises(TransactionStateError):
            engine.commit_read_only(txn)

    def test_apply_refresh_installs_remote_writeset(self, engine):
        local = engine.begin()  # reads old snapshot
        txn = engine.begin()
        engine.insert(txn, "t", {"id": 1, "v": 1})
        writeset = txn.writeset
        engine.abort(txn)  # pretend it executed remotely
        engine.apply_refresh(writeset, 1)
        assert engine.version == 1
        assert engine.read(local, "t", 1) is None  # old snapshot unaffected
        fresh = engine.begin()
        assert engine.read(fresh, "t", 1)["v"] == 1


class TestAbort:
    def test_abort_discards_writes(self, engine):
        txn = engine.begin()
        engine.insert(txn, "t", {"id": 1, "v": 1})
        engine.abort(txn, "test")
        fresh = engine.begin()
        assert engine.read(fresh, "t", 1) is None
        assert engine.version == 0

    def test_abort_twice_is_noop(self, engine):
        txn = engine.begin()
        engine.abort(txn)
        engine.abort(txn)
        assert engine.abort_count == 1

    def test_operations_on_aborted_txn_rejected(self, engine):
        txn = engine.begin()
        engine.abort(txn)
        with pytest.raises(TransactionStateError):
            engine.read(txn, "t", 1)
