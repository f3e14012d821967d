"""Tests for the Database container and version bookkeeping."""

import pytest

from repro.storage import (
    Column,
    Database,
    OpKind,
    StorageError,
    TableSchema,
    UnknownTableError,
    WriteOp,
    WriteSet,
)


@pytest.fixture
def db():
    database = Database("test")
    database.create_table(
        TableSchema("t", [Column("id", int), Column("v", int)], "id")
    )
    return database


def writeset(key, v, kind=OpKind.UPDATE):
    if kind is OpKind.DELETE:
        return WriteSet([WriteOp("t", key, OpKind.DELETE)])
    return WriteSet([WriteOp("t", key, kind, {"id": key, "v": v})])


class TestSchema:
    def test_create_and_lookup(self, db):
        assert db.has_table("t")
        assert db.table("t").schema.name == "t"
        assert db.table_names == ("t",)

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(StorageError):
            db.create_table(
                TableSchema("t", [Column("id", int)], "id")
            )

    def test_unknown_table_error(self, db):
        with pytest.raises(UnknownTableError):
            db.table("missing")


class TestVersions:
    def test_starts_at_zero(self, db):
        assert db.version == 0

    def test_apply_increments_version(self, db):
        db.apply_writeset(writeset(1, 10, OpKind.INSERT), 1)
        assert db.version == 1

    def test_out_of_order_apply_rejected(self, db):
        with pytest.raises(StorageError):
            db.apply_writeset(writeset(1, 10, OpKind.INSERT), 2)

    def test_duplicate_version_rejected(self, db):
        db.apply_writeset(writeset(1, 10, OpKind.INSERT), 1)
        with pytest.raises(StorageError):
            db.apply_writeset(writeset(2, 10, OpKind.INSERT), 1)

    def test_empty_writeset_rejected(self, db):
        with pytest.raises(StorageError):
            db.apply_writeset(WriteSet(), 1)

    def test_latest_write_version(self, db):
        db.apply_writeset(writeset(1, 10, OpKind.INSERT), 1)
        db.apply_writeset(writeset(2, 20, OpKind.INSERT), 2)
        db.apply_writeset(writeset(1, 11), 3)
        assert db.latest_write_version("t", 1) == 3
        assert db.latest_write_version("t", 2) == 2
        assert db.latest_write_version("t", 99) == 0


class TestGapTolerantApply:
    """``after=`` (the caller names the predecessors): applies may land
    ahead of the watermark, but visibility is the contiguous watermark."""

    @pytest.fixture
    def gdb(self, db):
        return db

    def test_gap_apply_holds_watermark(self, gdb):
        gdb.apply_writeset(writeset(1, 10, OpKind.INSERT), 1)
        gdb.apply_writeset(writeset(3, 30, OpKind.INSERT), 3, after=(1,))
        assert gdb.version == 1  # 2 is missing: watermark stays put
        assert gdb.has_applied(1)
        assert gdb.has_applied(3)
        assert not gdb.has_applied(2)

    def test_filling_the_gap_absorbs_the_run(self, gdb):
        gdb.apply_writeset(writeset(1, 10, OpKind.INSERT), 1)
        gdb.apply_writeset(writeset(3, 30, OpKind.INSERT), 3, after=(1,))
        gdb.apply_writeset(writeset(4, 40, OpKind.INSERT), 4, after=(3,))
        gdb.apply_writeset(writeset(2, 20, OpKind.INSERT), 2)
        assert gdb.version == 4
        assert gdb.has_applied(4)

    def test_duplicate_rejected_even_with_gaps(self, gdb):
        gdb.apply_writeset(writeset(3, 30, OpKind.INSERT), 3, after=())
        with pytest.raises(StorageError):
            gdb.apply_writeset(writeset(3, 31, OpKind.INSERT), 3, after=())
        with pytest.raises(StorageError):
            gdb.apply_writeset(writeset(1, 10, OpKind.INSERT), 0, after=())

    def test_missing_predecessor_rejected(self, gdb):
        gdb.apply_writeset(writeset(1, 10, OpKind.INSERT), 1)
        with pytest.raises(StorageError, match="after"):
            gdb.apply_writeset(writeset(4, 40, OpKind.INSERT), 4, after=(1, 3))
        assert not gdb.has_applied(4)
        gdb.apply_writeset(writeset(3, 30, OpKind.INSERT), 3, after=(1,))
        gdb.apply_writeset(writeset(4, 40, OpKind.INSERT), 4, after=(1, 3))
        assert gdb.has_applied(4) and gdb.version == 1

    def test_duplicate_below_the_watermark_rejected(self, gdb):
        gdb.apply_writeset(writeset(1, 10, OpKind.INSERT), 1)
        gdb.apply_writeset(writeset(2, 20, OpKind.INSERT), 2, after=(1,))
        assert gdb.version == 2
        with pytest.raises(StorageError):
            gdb.apply_writeset(writeset(2, 21), 2, after=(1,))

    def test_default_database_still_strict(self, db):
        assert db.has_applied(0)
        with pytest.raises(StorageError):
            db.apply_writeset(writeset(1, 10, OpKind.INSERT), 2)


class TestBulkLoad:
    def test_load_row_at_version_zero(self, db):
        db.load_row("t", {"id": 1, "v": 10})
        assert db.version == 0
        assert db.table("t").read(1, 0)["v"] == 10

    def test_load_after_commit_rejected(self, db):
        db.apply_writeset(writeset(1, 10, OpKind.INSERT), 1)
        with pytest.raises(StorageError):
            db.load_row("t", {"id": 2, "v": 20})

    def test_loaded_rows_visible_to_all_later_snapshots(self, db):
        db.load_row("t", {"id": 1, "v": 10})
        db.apply_writeset(writeset(2, 20, OpKind.INSERT), 1)
        assert db.table("t").read(1, 1)["v"] == 10
