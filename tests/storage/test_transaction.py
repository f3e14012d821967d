"""Tests for transaction objects: buffering, composition, lifecycle."""

import pytest
from hypothesis import given, strategies as st

from repro.storage import (
    OpKind,
    Transaction,
    TransactionStateError,
    TxnState,
    WriteOp,
    WriteSet,
)


def ins(key, **values):
    values.setdefault("id", key)
    return WriteOp("t", key, OpKind.INSERT, values)


def upd(key, **values):
    values.setdefault("id", key)
    return WriteOp("t", key, OpKind.UPDATE, values)


def dele(key):
    return WriteOp("t", key, OpKind.DELETE)


class TestLifecycle:
    def test_new_transaction_is_active_and_read_only(self):
        txn = Transaction(5)
        assert txn.is_active
        assert txn.is_read_only
        assert txn.snapshot_version == 5

    def test_txn_ids_are_unique(self):
        assert Transaction(0).txn_id != Transaction(0).txn_id

    def test_commit_transitions(self):
        txn = Transaction(0)
        txn.mark_committed(7)
        assert txn.state is TxnState.COMMITTED
        assert txn.commit_version == 7
        assert not txn.is_active

    def test_abort_transitions(self):
        txn = Transaction(0)
        txn.mark_aborted("conflict")
        assert txn.state is TxnState.ABORTED
        assert txn.abort_reason == "conflict"

    def test_double_abort_is_noop(self):
        txn = Transaction(0)
        txn.mark_aborted("first")
        txn.mark_aborted("second")
        assert txn.abort_reason == "first"

    def test_commit_after_abort_rejected(self):
        txn = Transaction(0)
        txn.mark_aborted()
        with pytest.raises(TransactionStateError):
            txn.mark_committed(1)

    def test_write_after_commit_rejected(self):
        txn = Transaction(0)
        txn.mark_committed(None)
        with pytest.raises(TransactionStateError):
            txn.buffer_write(ins(1, v=1))


class TestBuffering:
    def test_writeset_has_one_op_per_row(self):
        txn = Transaction(0)
        txn.buffer_write(upd(1, v=1))
        txn.buffer_write(upd(1, v=2))
        txn.buffer_write(upd(2, v=3))
        assert len(txn.writeset) == 2
        assert txn.writeset.op_for("t", 1).values["v"] == 2

    def test_table_set_tracks_writes(self):
        txn = Transaction(0)
        txn.buffer_write(upd(1, v=1))
        txn.buffer_write(WriteOp("other", 1, OpKind.UPDATE, {"id": 1}))
        assert txn.table_set == frozenset({"t", "other"})


class TestComposition:
    def test_insert_then_update_is_insert(self):
        txn = Transaction(0)
        txn.buffer_write(ins(1, v=1))
        txn.buffer_write(upd(1, v=2))
        op = txn.writeset.op_for("t", 1)
        assert op.kind is OpKind.INSERT
        assert op.values["v"] == 2

    def test_insert_then_delete_cancels(self):
        txn = Transaction(0)
        txn.buffer_write(ins(1, v=1))
        txn.buffer_write(dele(1))
        assert txn.writeset.is_empty
        assert txn.is_read_only

    def test_update_then_delete_is_delete(self):
        txn = Transaction(0)
        txn.buffer_write(upd(1, v=1))
        txn.buffer_write(dele(1))
        assert txn.writeset.op_for("t", 1).kind is OpKind.DELETE

    def test_delete_then_insert_is_update(self):
        txn = Transaction(0)
        txn.buffer_write(dele(1))
        txn.buffer_write(ins(1, v=9))
        op = txn.writeset.op_for("t", 1)
        assert op.kind is OpKind.UPDATE
        assert op.values["v"] == 9

    def test_update_after_delete_rejected(self):
        txn = Transaction(0)
        txn.buffer_write(dele(1))
        with pytest.raises(TransactionStateError):
            txn.buffer_write(upd(1, v=1))

    def test_read_tracking(self):
        txn = Transaction(0)
        txn.note_read("t", 1)
        txn.note_read("t", 2)
        txn.note_read("t", 1)
        assert txn.read_keys == {("t", 1), ("t", 2)}


SLOTS = st.tuples(st.sampled_from(["t", "u"]), st.integers(1, 6))


@given(
    writes=st.lists(st.tuples(st.sampled_from(["insert", "update", "delete"]), SLOTS),
                    max_size=12),
    refresh=st.lists(SLOTS, max_size=4),
)
def test_writes_any_equals_the_partial_writeset_conflict(writes, refresh):
    """``writes_any`` decides arrival-side early certification exactly as
    ``WriteSet.conflicts_with(txn.writeset)`` does, whatever the buffered
    writes composed to: insert→delete cancels the slot, delete→insert
    keeps it as an update, and a write after a delete is refused."""
    txn = Transaction(0)
    for kind, (table, key) in writes:
        values = None if kind == "delete" else {"id": key, "v": len(writes)}
        try:
            txn.buffer_write(WriteOp(table, key, OpKind(kind), values))
        except TransactionStateError:
            pass  # update or delete after a delete
    arriving = WriteSet(
        WriteOp(table, key, OpKind.UPDATE, {"id": key, "v": 0}) for table, key in refresh
    )
    assert txn.writes_any(arriving.slots) == arriving.conflicts_with(txn.writeset)
