"""Tests for the shared version-0 image (``Database.clone``).

A cluster populates one seed database and hands every replica a
copy-on-write clone.  Two contracts keep that invisible:

* **differential** — a clone is indistinguishable from a database that ran
  the same populate itself (digests, counts, key order, index lookups);
* **isolation** — whatever one copy does afterwards (commit, delete, peer
  resync, vacuum, bit rot) leaves the seed and every sibling unchanged.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import RngRegistry
from repro.storage import Database, StorageError
from repro.workloads import MicroBenchmark, TPCCBenchmark, TPCWBenchmark

from .test_digest import dele, ins, make_db, upd, ws

WORKLOADS = {
    "micro": lambda: MicroBenchmark(update_types=20, rows_per_table=40),
    "tpcw": lambda: TPCWBenchmark(
        mix="shopping", num_items=30, num_customers=20, num_authors=10
    ),
    "tpcc": lambda: TPCCBenchmark(
        num_warehouses=1, districts_per_warehouse=3,
        customers_per_district=5, num_items=12,
    ),
}


def populated(workload, seed=11, name="db"):
    db = Database(name=name)
    for schema in workload.schemas():
        db.create_table(schema)
    workload.populate(db, RngRegistry(seed).stream("populate"))
    return db


def image(db):
    """Everything observable about a database's stored state, by value."""
    out = {"version": db.version}
    for name in db.table_names:
        table = db.table(name)
        out[name] = {
            "keys": list(table._ordered_keys()),
            "chains": {
                key: [
                    (v.commit_version, v.deleted, None if v.deleted else dict(v.values))
                    for v in chain.versions()
                ]
                for key, chain in table._chains.items()
            },
            "indexes": {
                column: {value: sorted(keys) for value, keys in index.items()}
                for column, index in table._indexes.items()
            },
            "scan_fallbacks": table.scan_fallbacks,
        }
    out["recomputed"] = db.recompute_digests()
    out["digests"] = db.digests()
    return out


# -- (a) differential: N independent populates ≡ one populate + clones -------

@pytest.mark.parametrize("kind", sorted(WORKLOADS))
def test_clones_equal_independent_populates(kind):
    workload = WORKLOADS[kind]()
    independent = [populated(workload) for _ in range(3)]
    seed = populated(workload)
    cloned = [seed] + [seed.clone(f"clone-{i}") for i in range(2)]
    for own, shared in zip(independent, cloned):
        assert shared.version == 0
        assert shared.table_names == own.table_names
        assert shared.digests() == own.digests()
        assert shared.recompute_digests() == own.recompute_digests()
        assert shared.scan_fallbacks() == own.scan_fallbacks()
        for name in own.table_names:
            mine, theirs = own.table(name), shared.table(name)
            assert len(theirs) == len(mine)
            assert theirs.count(0) == mine.count(0)
            assert list(theirs.scan(0)) == list(mine.scan(0))  # key order too
            for column, index in mine._indexes.items():
                for value in index:
                    assert theirs.lookup(column, value, 0) == mine.lookup(column, value, 0)


def test_clone_keeps_the_digest_fold_lazy():
    seed = populated(WORKLOADS["micro"]())
    twin = seed.clone("twin")
    assert twin._digests == {} and twin._latest_hash == {}
    assert sum(len(ops) for ops in twin._pending_digest_ops.values()) == 4 * 40
    assert twin.digests() == seed.digests() == seed.recompute_digests()


def test_clone_only_before_the_first_commit():
    db = make_db()
    db.apply_writeset(ws(ins("a", 1, 10)), 1)
    with pytest.raises(StorageError):
        db.clone("late")


def test_untouched_rows_are_one_object_until_a_copy_writes():
    seed = make_db()
    seed.load_row("a", {"id": 1, "v": 10})
    left, right = seed.clone("left"), seed.clone("right")
    assert left.table("a").read(1, 0) is right.table("a").read(1, 0)
    left.apply_writeset(ws(upd("a", 1, 11)), 1)
    assert left.table("a").read(1, 1) == {"id": 1, "v": 11}
    assert left.table("a").read(1, 0) is right.table("a").read(1, 0)  # history shared
    assert right.table("a").read(1, 1) == {"id": 1, "v": 10}
    assert right.table("a")._chains[1].frozen
    assert not left.table("a")._chains[1].frozen


# -- (b) isolation under random op interleavings ------------------------------

mutations = st.lists(
    st.tuples(
        st.integers(0, 2),  # which clone
        st.one_of(
            st.tuples(st.just("apply"), st.sampled_from(["a", "b"]),
                      st.integers(1, 6), st.integers(0, 99), st.booleans()),
            st.tuples(st.just("resync"), st.sampled_from(["a", "b"]),
                      st.lists(st.tuples(st.integers(1, 8), st.integers(0, 99)),
                               max_size=4, unique_by=lambda e: e[0]),
                      st.integers(0, 2)),  # how far behind the peer's capture is
            st.tuples(st.just("vacuum")),
            st.tuples(st.just("corrupt"), st.sampled_from(["a", "b"]),
                      st.integers(1, 6)),
        ),
    ),
    min_size=1, max_size=30,
)


def mutate(db, op):
    """Run one mutation through the public write paths of ``db``."""
    if op[0] == "apply":
        _tag, table, key, value, delete = op
        version = db.version + 1
        present = db.table(table).read(key, db.version) is not None
        if delete and present:
            db.apply_writeset(ws(dele(table, key)), version)
        else:
            db.apply_writeset(ws((upd if present else ins)(table, key, value)), version)
    elif op[0] == "resync":
        _tag, table, rows, lag = op
        synced = max(0, db.version - lag)
        entries = [(key, {"id": key, "v": value}, synced, False) for key, value in rows]
        db.resync_table(table, entries, synced_version=synced)
    elif op[0] == "vacuum":
        db.vacuum()
    elif op[0] == "corrupt":
        _tag, table, key = op
        db.corrupt_row_in_place(table, key)


@settings(max_examples=60)
@given(mutations)
def test_mutating_one_clone_leaves_seed_and_siblings_unchanged(ops):
    seed = make_db()
    for table in ("a", "b"):
        for key in range(1, 5):
            seed.load_row(table, {"id": key, "v": key * 10})
    clones = [seed.clone(f"clone-{i}") for i in range(3)]
    pristine = image(seed)
    # What each clone must look like: the same ops on a private populate.
    oracles = [make_db() for _ in clones]
    for oracle in oracles:
        for table in ("a", "b"):
            for key in range(1, 5):
                oracle.load_row(table, {"id": key, "v": key * 10})
    for target, op in ops:
        mutate(clones[target], op)
        mutate(oracles[target], op)
        assert image(seed) == pristine
        for clone, oracle in zip(clones, oracles):
            assert image(clone) == image(oracle)
