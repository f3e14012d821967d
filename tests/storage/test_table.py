"""Tests for the versioned table (primary and secondary indexes)."""

import pytest

from repro.storage import (
    Column,
    OpKind,
    SchemaError,
    TableSchema,
    VersionedTable,
    WriteOp,
)


@pytest.fixture
def table():
    schema = TableSchema(
        "items",
        columns=[Column("id", int), Column("cat", str), Column("v", int)],
        primary_key="id",
        indexes=["cat"],
    )
    return VersionedTable(schema)


def apply_insert(table, key, cat, v, version):
    table.apply_op(
        WriteOp("items", key, OpKind.INSERT, {"id": key, "cat": cat, "v": v}), version
    )


class TestReads:
    def test_read_missing_key(self, table):
        assert table.read(99, 10) is None

    def test_read_visible_version(self, table):
        apply_insert(table, 1, "a", 10, 1)
        assert table.read(1, 1)["v"] == 10
        assert table.read(1, 0) is None

    def test_update_creates_new_version(self, table):
        apply_insert(table, 1, "a", 10, 1)
        table.apply_op(
            WriteOp("items", 1, OpKind.UPDATE, {"id": 1, "cat": "a", "v": 20}), 2
        )
        assert table.read(1, 1)["v"] == 10
        assert table.read(1, 2)["v"] == 20

    def test_delete_hides_row(self, table):
        apply_insert(table, 1, "a", 10, 1)
        table.apply_op(WriteOp("items", 1, OpKind.DELETE), 2)
        assert table.read(1, 1) is not None
        assert table.read(1, 2) is None
        assert not table.exists(1, 2)

    def test_latest_commit_version(self, table):
        assert table.latest_commit_version(1) == 0
        apply_insert(table, 1, "a", 10, 3)
        assert table.latest_commit_version(1) == 3


class TestScan:
    def test_scan_in_key_order(self, table):
        for key in (3, 1, 2):
            apply_insert(table, key, "a", key * 10, key)
        rows = list(table.scan(10))
        assert [r["id"] for r in rows] == [1, 2, 3]

    def test_scan_respects_snapshot(self, table):
        apply_insert(table, 1, "a", 10, 1)
        apply_insert(table, 2, "a", 20, 2)
        assert len(list(table.scan(1))) == 1
        assert len(list(table.scan(2))) == 2

    def test_scan_with_predicate(self, table):
        for key in range(1, 6):
            apply_insert(table, key, "a", key, key)
        rows = list(table.scan(10, predicate=lambda r: r["v"] > 3))
        assert [r["v"] for r in rows] == [4, 5]

    def test_scan_with_limit(self, table):
        for key in range(1, 6):
            apply_insert(table, key, "a", key, key)
        rows = list(table.scan(10, limit=2))
        assert len(rows) == 2

    def test_count(self, table):
        apply_insert(table, 1, "a", 10, 1)
        apply_insert(table, 2, "a", 20, 2)
        table.apply_op(WriteOp("items", 1, OpKind.DELETE), 3)
        assert table.count(2) == 2
        assert table.count(3) == 1


class TestSecondaryIndex:
    def test_lookup_by_indexed_column(self, table):
        apply_insert(table, 1, "fruit", 10, 1)
        apply_insert(table, 2, "fruit", 20, 2)
        apply_insert(table, 3, "veg", 30, 3)
        assert table.lookup("cat", "fruit", 3) == [1, 2]
        assert table.lookup("cat", "veg", 3) == [3]

    def test_lookup_respects_snapshot(self, table):
        apply_insert(table, 1, "fruit", 10, 1)
        apply_insert(table, 2, "fruit", 20, 5)
        assert table.lookup("cat", "fruit", 1) == [1]

    def test_lookup_sees_value_changes(self, table):
        apply_insert(table, 1, "fruit", 10, 1)
        table.apply_op(
            WriteOp("items", 1, OpKind.UPDATE, {"id": 1, "cat": "veg", "v": 10}), 2
        )
        assert table.lookup("cat", "fruit", 1) == [1]
        assert table.lookup("cat", "fruit", 2) == []
        assert table.lookup("cat", "veg", 2) == [1]

    def test_lookup_excludes_deleted(self, table):
        apply_insert(table, 1, "fruit", 10, 1)
        table.apply_op(WriteOp("items", 1, OpKind.DELETE), 2)
        assert table.lookup("cat", "fruit", 2) == []

    def test_lookup_unindexed_column_falls_back_to_scan(self, table):
        apply_insert(table, 1, "a", 10, 1)
        apply_insert(table, 2, "a", 20, 2)
        assert table.lookup("v", 20, 2) == [2]

    def test_scan_fallbacks_counted_and_logged_once(self, table, caplog):
        apply_insert(table, 1, "a", 10, 1)
        assert table.scan_fallbacks == 0
        with caplog.at_level("WARNING", logger="repro.storage.table"):
            table.lookup("v", 10, 1)
            table.lookup("v", 10, 1)
        assert table.scan_fallbacks == 2
        # The degradation is reported exactly once per column.
        warnings = [r for r in caplog.records if "unindexed column" in r.message]
        assert len(warnings) == 1
        # Indexed lookups never touch the counter.
        table.lookup("cat", "a", 1)
        assert table.scan_fallbacks == 2

    def test_lookup_unknown_column_rejected(self, table):
        with pytest.raises(SchemaError):
            table.lookup("missing", 1, 1)


class TestApplyValidation:
    def test_wrong_table_rejected(self, table):
        with pytest.raises(SchemaError):
            table.apply_op(WriteOp("other", 1, OpKind.INSERT, {"id": 1}), 1)

    def test_key_mismatch_rejected(self, table):
        with pytest.raises(SchemaError):
            table.apply_op(
                WriteOp("items", 1, OpKind.INSERT, {"id": 2, "cat": "a", "v": 1}), 1
            )

    def test_schema_violation_rejected(self, table):
        with pytest.raises(SchemaError):
            table.apply_op(
                WriteOp("items", 1, OpKind.INSERT, {"id": 1, "cat": 5, "v": 1}), 1
            )

    def test_rejected_op_leaves_no_trace(self, table):
        op = WriteOp("items", 1, OpKind.INSERT, {"id": 1, "cat": 5, "v": 1})
        with pytest.raises(SchemaError):
            table.apply_op(op, 1)
        assert len(table) == 0 and table.latest(1) is None and op._image is None

    def test_out_of_order_version_rejected(self, table):
        apply_insert(table, 1, "a", 1, 5)
        for version in (5, 3):
            with pytest.raises(ValueError):
                table.apply_op(
                    WriteOp("items", 1, OpKind.UPDATE, {"id": 1, "cat": "a", "v": 2}),
                    version,
                )
        assert table.latest_commit_version(1) == 5


class TestMaintenance:
    def test_vacuum_reduces_version_count(self, table):
        apply_insert(table, 1, "a", 1, 1)
        for version in range(2, 6):
            table.apply_op(
                WriteOp("items", 1, OpKind.UPDATE, {"id": 1, "cat": "a", "v": version}),
                version,
            )
        assert table.version_count() == 5
        removed = table.vacuum(5)
        assert removed == 4
        assert table.read(1, 5)["v"] == 5

    def test_len_counts_keys(self, table):
        apply_insert(table, 1, "a", 1, 1)
        apply_insert(table, 2, "a", 2, 2)
        table.apply_op(WriteOp("items", 1, OpKind.DELETE), 3)
        assert len(table) == 2  # tombstoned keys still counted

class TestSwapLatest:
    """The corruption fault model's bit rot: another image at the same
    commit version, in this table only."""

    def test_swap_latest_keeps_the_commit_version(self, table):
        apply_insert(table, 1, "a", 1, 1)
        apply_insert(table, 1, "a", 2, 4)
        table.swap_latest(1, {"id": 1, "cat": "a", "v": 99})
        assert table.latest_commit_version(1) == 4
        assert table.read(1, 4)["v"] == 99
        assert table.read(1, 3)["v"] == 1  # history below is untouched
        assert table.version_count() == 2

    def test_swap_latest_leaves_the_installed_node_alone(self, table):
        apply_insert(table, 1, "a", 1, 1)
        twin = table.clone()
        installed = table.latest(1)
        table.swap_latest(1, {"id": 1, "cat": "a", "v": 99})
        assert installed.values["v"] == 1
        assert twin.latest(1) is installed and twin.read(1, 1)["v"] == 1
        assert table.latest(1) is not installed
