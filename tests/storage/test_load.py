"""Differential tests for the initial-load path.

``Database.load_row`` installs a row of the version-0 data set directly on
a database without digests (``VersionedTable.load_row``), and through an
INSERT ``WriteOp`` on one that keeps them.  The reference below is the load
as it used to be everywhere — build the op, hand it to the certified-commit
path (``VersionedTable.apply_op``) — and every observable piece of state
must come out the same: chains, key order, secondary indexes, digests,
clones, and which rows are refused.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage import (
    Column,
    Database,
    SchemaError,
    StorageError,
    TableSchema,
    UnknownTableError,
)
from repro.storage.writeset import OpKind, WriteOp, WriteSet

from .test_clone import image

SCHEMAS = (
    # homogeneous int keys, one secondary index
    TableSchema(
        "h",
        [Column("id", int), Column("g", int), Column("s", str)],
        "id",
        indexes=["g"],
    ),
    # a float key column takes ints and floats alike: mixed key types, and
    # a nullable indexed column
    TableSchema(
        "m",
        [Column("id", float), Column("g", str), Column("n", int, nullable=True)],
        "id",
        indexes=["g", "n"],
    ),
)


def make_db(digests):
    db = Database(maintain_digests=digests)
    for schema in SCHEMAS:
        db.create_table(schema)
    return db


def reference_load(db, table, values):
    """The load through the commit path: an INSERT op applied at version 0."""
    if db.version != 0:
        raise StorageError("load_row is only legal before the first commit")
    tbl = db.table(table)
    op = WriteOp(table, tbl.schema.key_of(values), OpKind.INSERT, values)
    if db.maintain_digests:
        db._digest_apply(tbl, op, 0)
    else:
        tbl.apply_op(op, 0)


def outcome(load, db, table, values):
    try:
        load(db, table, values)
    except (SchemaError, ValueError) as exc:
        return type(exc)
    return None


def state(db):
    """``image`` plus what it leaves implicit: every chain is one version-0
    node with no predecessor, and the key-type bookkeeping."""
    for name in db.table_names:
        for head in db.table(name)._chains.values():
            assert (head.commit_version, head.prev, head.deleted) == (0, None, False)
    out = image(db)
    out["key_types"] = {
        name: (db.table(name)._key_type, db.table(name)._mixed_keys)
        for name in db.table_names
    }
    return out


small = st.integers(min_value=-3, max_value=12)
float_keys = st.one_of(small, small.map(lambda k: k + 0.5))
groups = st.sampled_from(["x", "y", "z"])

valid_rows = st.one_of(
    st.tuples(st.just("h"), st.fixed_dictionaries(
        {"id": small, "g": st.integers(0, 3), "s": st.sampled_from(["a", "b"])}
    )),
    st.tuples(st.just("m"), st.fixed_dictionaries(
        {"id": float_keys, "g": groups, "n": st.one_of(st.none(), st.integers(0, 2))}
    )),
)


@st.composite
def invalid_rows(draw):
    """A valid row with one column dropped, added or given a wrong type."""
    table, values = draw(valid_rows)
    values = dict(values)
    column = draw(st.sampled_from(sorted(values)))
    fault = draw(st.sampled_from(["drop", "extra", "type"]))
    if fault == "drop":
        del values[column]
    elif fault == "extra":
        values["nope"] = 1
    else:
        values[column] = b"wrong"
    return table, values


rows = st.lists(
    st.one_of(valid_rows, valid_rows, valid_rows, invalid_rows()), max_size=40
)


@settings(max_examples=150, deadline=None)
@given(rows=rows, digests=st.booleans())
def test_load_equals_the_commit_path_load(rows, digests):
    loaded, reference = make_db(digests), make_db(digests)
    for table, values in rows:
        got = outcome(Database.load_row, loaded, table, values)
        want = outcome(reference_load, reference, table, values)
        assert got == want, (table, values)
        # key order is read between loads, so a load that left a stale
        # key-order snapshot behind shows on the next comparison
        for name in loaded.table_names:
            assert (
                loaded.table(name)._ordered_keys()
                == reference.table(name)._ordered_keys()
            )
    assert state(loaded) == state(reference)
    assert loaded.recompute_digests() == reference.recompute_digests()
    assert state(loaded.clone("c")) == state(reference.clone("c"))
    for name, column in (("h", "g"), ("m", "g"), ("m", "n")):
        for value in (0, 1, 2, "x", "y", None):
            assert loaded.table(name).lookup(column, value, 0) == reference.table(
                name
            ).lookup(column, value, 0)


@pytest.fixture(params=[False, True], ids=["plain", "digests"])
def db(request):
    return make_db(request.param)


ROW = {"id": 1, "g": 2, "s": "a"}


class TestErrorContract:
    def test_duplicate_key_is_refused_and_changes_nothing(self, db):
        db.load_row("h", ROW)
        before = state(db)
        with pytest.raises(ValueError, match="out-of-order commit version"):
            db.load_row("h", {"id": 1, "g": 3, "s": "b"})
        assert state(db) == before

    @pytest.mark.parametrize(
        "values",
        [
            {"id": 1, "g": 2, "s": "a", "nope": 0},  # unknown column
            {"id": 1, "g": 2},  # missing column
            {"g": 2, "s": "a"},  # missing primary key
            {"id": 1, "g": "2", "s": "a"},  # wrong type
            {"id": True, "g": 2, "s": "a"},  # bool for an int key
        ],
    )
    def test_invalid_row_is_refused_and_changes_nothing(self, db, values):
        with pytest.raises(SchemaError):
            db.load_row("h", values)
        assert len(db.table("h")) == 0

    def test_none_values_raise_value_error(self, db):
        with pytest.raises(ValueError):
            db.load_row("h", None)

    def test_unknown_table(self, db):
        with pytest.raises(UnknownTableError):
            db.load_row("nope", ROW)

    def test_load_after_the_first_commit_is_refused(self, db):
        db.load_row("h", ROW)
        db.apply_writeset(
            WriteSet([WriteOp("h", 2, OpKind.INSERT, {"id": 2, "g": 0, "s": "b"})]), 1
        )
        with pytest.raises(StorageError):
            db.load_row("h", {"id": 3, "g": 0, "s": "c"})

    def test_the_row_is_copied_not_adopted(self, db):
        values = dict(ROW)
        db.load_row("h", values)
        values["g"] = 99
        assert db.table("h").read(1, 0) == ROW
        assert db.table("h").lookup("g", 2, 0) == [1]
