"""Property-based tests for the storage engine's core invariants."""

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.storage import (
    Column,
    DuplicateKeyError,
    OpKind,
    RowVersion,
    StorageEngine,
    TableSchema,
    WriteConflictError,
    WriteOp,
    WriteSet,
)
from repro.storage.rows import visible_at

keys = st.integers(min_value=1, max_value=8)
values = st.integers(min_value=0, max_value=1000)


class TestVersionChainProperties:
    @given(
        st.lists(
            st.tuples(st.booleans(), values), min_size=1, max_size=20
        ),
        st.integers(min_value=0, max_value=25),
    )
    def test_visible_at_matches_linear_scan(self, entries, snapshot):
        """The newest-first walk must agree with a naive oldest-first scan."""
        head = None
        log = []
        for offset, (deleted, value) in enumerate(entries):
            version = offset + 1
            if deleted:
                head = RowVersion(version, None, deleted=True, prev=head)
            else:
                head = RowVersion(version, {"v": value}, prev=head)
            log.append((version, deleted, value))

        expected = None
        for version, deleted, value in log:
            if version <= snapshot:
                expected = None if deleted else value
        visible = visible_at(head, snapshot)
        assert (visible.values["v"] if visible else None) == expected


class TestWriteSetProperties:
    ops = st.lists(
        st.tuples(st.sampled_from(["a", "b"]), keys), min_size=0, max_size=10
    )

    @given(ops, ops)
    def test_conflict_symmetry(self, slots1, slots2):
        def build(slots):
            return WriteSet(
                WriteOp(t, k, OpKind.UPDATE, {"id": k}) for t, k in slots
            )

        w1, w2 = build(slots1), build(slots2)
        assert w1.conflicts_with(w2) == w2.conflicts_with(w1)
        expected = bool(set(slots1) & set(slots2))
        assert w1.conflicts_with(w2) == expected


class SnapshotIsolationMachine(RuleBasedStateMachine):
    """Stateful test: the engine against a straightforward SI oracle.

    The oracle keeps full committed states per version and implements
    first-committer-wins by key-version comparison; any divergence between
    the engine and the oracle is a bug in the MVCC machinery.
    """

    def __init__(self):
        super().__init__()
        self.engine = StorageEngine()
        self.engine.create_table(
            TableSchema("t", [Column("id", int), Column("v", int)], "id")
        )
        # version -> {key: value}; version 0 is the empty initial state.
        self.states = {0: {}}
        self.latest = 0
        # key -> version of last committed write
        self.last_write = {}
        # txn -> (snapshot, {key: value or None for delete})
        self.open = {}

    @rule(snapshot_back=st.integers(min_value=0, max_value=3))
    def begin(self, snapshot_back):
        snapshot = max(0, self.latest - snapshot_back)
        txn = self.engine.begin(snapshot_version=snapshot)
        self.open[txn] = (snapshot, {})

    @precondition(lambda self: self.open)
    @rule(key=keys, data=st.data())
    def read(self, key, data):
        txn = data.draw(st.sampled_from(sorted(self.open, key=lambda t: t.txn_id)))
        snapshot, writes = self.open[txn]
        got = self.engine.read(txn, "t", key)
        if key in writes:
            expected = writes[key]
        else:
            expected = self.states[snapshot].get(key)
        assert (got["v"] if got else None) == expected

    @precondition(lambda self: self.open)
    @rule(key=keys, value=values, data=st.data())
    def write(self, key, value, data):
        txn = data.draw(st.sampled_from(sorted(self.open, key=lambda t: t.txn_id)))
        snapshot, writes = self.open[txn]
        visible = (
            writes[key] if key in writes else self.states[snapshot].get(key)
        )
        if visible is None:
            try:
                self.engine.insert(txn, "t", {"id": key, "v": value})
            except DuplicateKeyError:
                pytest.fail("engine saw a duplicate the oracle did not")
            writes[key] = value
        else:
            self.engine.update(txn, "t", 1 * key, {"v": value})
            writes[key] = value

    @precondition(lambda self: self.open)
    @rule(data=st.data())
    def commit(self, data):
        txn = data.draw(st.sampled_from(sorted(self.open, key=lambda t: t.txn_id)))
        snapshot, writes = self.open.pop(txn)
        conflict = any(
            self.last_write.get(key, 0) > snapshot for key in writes
        )
        if not writes:
            assert self.engine.commit(txn) is None
            return
        if conflict:
            with pytest.raises(WriteConflictError):
                self.engine.commit(txn)
        else:
            new_version = self.engine.commit(txn)
            assert new_version == self.latest + 1
            state = dict(self.states[self.latest])
            for key, value in writes.items():
                if value is None:
                    state.pop(key, None)
                else:
                    state[key] = value
                self.last_write[key] = new_version
            self.latest = new_version
            self.states[new_version] = state

    @precondition(lambda self: self.open)
    @rule(data=st.data())
    def abort(self, data):
        txn = data.draw(st.sampled_from(sorted(self.open, key=lambda t: t.txn_id)))
        del self.open[txn]
        self.engine.abort(txn)

    @invariant()
    def latest_state_matches(self):
        probe = self.engine.begin(snapshot_version=self.latest)
        try:
            expected = self.states[self.latest]
            for key in range(1, 9):
                got = self.engine.database.table("t").read(key, self.latest)
                assert (got["v"] if got else None) == expected.get(key)
        finally:
            self.engine.abort(probe)


TestSnapshotIsolationMachine = SnapshotIsolationMachine.TestCase
TestSnapshotIsolationMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
