"""Tests for row versions shared between database copies.

A cluster populates one seed database and hands every replica a clone
(``Database.clone``); from then on the replicas install the same certified
ops in the same order and so keep holding *one* ``RowVersion`` per committed
row write between them.  Four contracts keep that invisible:

* **differential** — a clone is indistinguishable from a database that ran
  the same populate itself (digests, counts, key order, index lookups);
* **sharing** — copies in the same state install the same node; a copy in
  any other state (other commit version, other head) builds its own;
* **isolation** — whatever one copy does (commit, delete, peer resync,
  vacuum, bit rot), at whatever lag behind the others, leaves the seed and
  every sibling unchanged, at every snapshot version;
* **ownership** — a clone shares even the key → head map and the index
  sets until its own first write (commit, load, bit rot, resync, a vacuum
  that trims), so a clone that never writes keeps holding the seed's.
"""

from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.corruption import corrupt_row_in_place
from repro.sim import RngRegistry
from repro.storage import Column, Database, StorageError, TableSchema
from repro.storage.digest import row_content_hash
from repro.storage.rows import versions
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


def history(head):
    """A chain by value, oldest first."""
    return [
        (v.commit_version, v.deleted, None if v.deleted else dict(v.values))
        for v in versions(head)
    ][::-1]


def image(db):
    """Everything observable about a database's stored state, by value."""
    out = {"version": db.version}
    for name in db.table_names:
        table = db.table(name)
        out[name] = {
            "keys": list(table._ordered_keys()),
            "chains": {
                key: history(head)
                for key, head in table._chains.items()
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




# -- (b) sharing: same state → same node, any other state → a private one ----

def test_untouched_rows_are_one_object_until_a_copy_writes():
    seed = make_db()
    seed.load_row("a", {"id": 1, "v": 10})
    left, right = seed.clone("left"), seed.clone("right")
    assert left.table("a").read(1, 0) is right.table("a").read(1, 0)
    left.apply_writeset(ws(upd("a", 1, 11)), 1)
    assert left.table("a").read(1, 1) == {"id": 1, "v": 11}
    assert left.table("a").read(1, 0) is right.table("a").read(1, 0)  # history shared
    assert right.table("a").read(1, 1) == {"id": 1, "v": 10}
    # The write put a new head in front of the node both copies hold.
    assert left.table("a").latest(1).prev is right.table("a").latest(1)


def test_copies_applying_the_same_writesets_hold_one_node_per_write(monkeypatch):
    seed = make_db()
    for key in (1, 2):
        seed.load_row("a", {"id": key, "v": key})
    replicas = [seed.clone(f"replica-{i}") for i in range(8)]
    log = [
        ws(upd("a", 1, 5), upd("a", 2, 6)),
        ws(dele("a", 1), ins("b", 7, 7)),
        ws(ins("a", 1, 8)),
        ws(upd("a", 1, 9), upd("b", 7, 10)),
    ]
    validated = []
    validate_row = TableSchema.validate_row
    monkeypatch.setattr(
        TableSchema, "validate_row",
        lambda self, row, partial=False: (
            validated.append(self.name), validate_row(self, row, partial))[1],
    )
    # Replicas run at their own pace: the last one starts only after the
    # first has applied everything.
    for replica in replicas:
        for version, writeset in enumerate(log, start=1):
            replica.apply_writeset(writeset, version)
    ops = [op for writeset in log for op in writeset]
    assert len(validated) == sum(op.values is not None for op in ops)  # once per op
    first, last = replicas[0], replicas[-1]
    for op in ops:
        assert first.table(op.table).latest(op.key) is last.table(op.table).latest(op.key)
    for snapshot in range(len(log) + 1):
        for op in ops:
            mine = first.table(op.table).read(op.key, snapshot)
            assert mine is last.table(op.table).read(op.key, snapshot)
    stored = {id(v) for r in replicas for v in versions(r.table("a").latest(1))}
    assert len(stored) == 5  # the loaded row + four writes, for all 8 copies
    assert image(first) == image(last) and image(seed)["version"] == 0


def test_image_is_not_reused_at_another_commit_version():
    seed = make_db()
    seed.load_row("a", {"id": 1, "v": 10})
    left, right = seed.clone("left"), seed.clone("right")
    write = ws(upd("a", 1, 11))
    left.apply_writeset(write, 1)
    right.apply_writeset(ws(ins("a", 2, 20)), 1)
    right.apply_writeset(write, 2)  # same op, same head, another version
    mine, theirs = left.table("a").latest(1), right.table("a").latest(1)
    assert theirs is not mine and theirs.prev is mine.prev
    assert (mine.commit_version, theirs.commit_version) == (1, 2)
    assert right.table("a").read(1, 1) == {"id": 1, "v": 10}
    assert next(iter(write))._image is mine  # the first installer's stays


@pytest.mark.parametrize("diverge", [
    lambda db: corrupt_row_in_place(db, "a", 1),
    lambda db: db.resync_table("a", [(1, {"id": 1, "v": 11}, 1, False)], 1),
    lambda db: db.vacuum(),
], ids=["corrupt", "resync", "vacuum"])
@pytest.mark.parametrize("diverged_first", [False, True])
def test_image_is_not_reused_on_another_head(diverge, diverged_first):
    seed = make_db()
    seed.load_row("a", {"id": 1, "v": 10})
    healthy, odd, late = (seed.clone(name) for name in ("healthy", "odd", "late"))
    first = ws(upd("a", 1, 11))
    for db in (healthy, odd, late):
        db.apply_writeset(first, 1)
    diverge(odd)
    odd_head = odd.table("a").latest(1)
    assert odd_head is not healthy.table("a").latest(1)
    second = ws(upd("a", 1, 12))
    order = (odd, healthy, late) if diverged_first else (healthy, odd, late)
    for db in order:
        db.apply_writeset(second, 2)
    assert odd.table("a").latest(1).prev is odd_head  # built on its own head
    assert odd.table("a").latest(1) is not healthy.table("a").latest(1)
    assert healthy.table("a").read(1, 1) is late.table("a").read(1, 1)
    assert history(healthy.table("a").latest(1)) == history(late.table("a").latest(1)) == [
        (0, False, {"id": 1, "v": 10}),
        (1, False, {"id": 1, "v": 11}),
        (2, False, {"id": 1, "v": 12}),
    ]
    if not diverged_first:
        assert healthy.table("a").latest(1) is late.table("a").latest(1)


def test_vacuum_on_one_copy_leaves_old_snapshots_readable_on_a_sibling():
    seed = make_db()
    seed.load_row("a", {"id": 1, "v": 0})
    left, right = seed.clone("left"), seed.clone("right")
    for version in range(1, 6):
        write = ws(upd("a", 1, version))
        left.apply_writeset(write, version)
        right.apply_writeset(write, version)
    assert left.table("a").version_count() == right.table("a").version_count() == 6
    assert left.vacuum(4) == 4  # versions 0..3 go, 4 and 5 stay
    assert left.table("a").version_count() == 2
    assert left.table("a").read(1, 4) == {"id": 1, "v": 4}
    assert left.table("a").read(1, 3) is None
    assert right.table("a").version_count() == 6
    for snapshot in range(6):
        assert right.table("a").read(1, snapshot) == {"id": 1, "v": snapshot}
    assert seed.table("a").version_count() == 1
    # Nothing to trim: the chain stays the shared one.
    assert right.vacuum(0) == 0
    assert right.table("a").latest(1).prev is not left.table("a").latest(1).prev


# -- (c) isolation under random, lagging op interleavings ---------------------

KEYS = range(1, 9)
TABLES = ("a", "b")


def make_indexed_db(maintain_digests=True):
    db = Database(maintain_digests=maintain_digests)
    for name in TABLES:
        db.create_table(
            TableSchema(name, [Column("id", int), Column("v", int)], "id", indexes=["v"])
        )
    return db


class Reference:
    """What one database copy must contain, kept the way the storage layer
    used to keep it: per key a plain list of commit versions and a parallel
    list of images (None = tombstone), read with a bisect.  Shares nothing
    with the code under test."""

    def __init__(self):
        self.version = 0
        self.chains = {table: {} for table in TABLES}
        #: what the incremental digest believes each latest image is
        self.folded = {table: {} for table in TABLES}
        #: the secondary index on ``v``: every value a key was *written*
        #: with (bit rot happens beneath it, a resync rebuilds it)
        self.indexed = {table: set() for table in TABLES}

    def load(self, table, values):
        self.chains[table][values["id"]] = ([0], [dict(values)])
        self.folded[table][values["id"]] = dict(values)
        self.indexed[table].add((values["v"], values["id"]))

    def apply(self, writeset, version):
        for op in writeset:
            commit_versions, images = self.chains[op.table].setdefault(op.key, ([], []))
            commit_versions.append(version)
            images.append(None if op.values is None else dict(op.values))
            if op.values is None:
                self.folded[op.table].pop(op.key, None)
            else:
                self.folded[op.table][op.key] = dict(op.values)
                self.indexed[op.table].add((op.values["v"], op.key))
        self.version = version

    def resync(self, table, entries, synced):
        chains = {
            key: chain for key, chain in self.chains[table].items()
            if chain[0][-1] > synced
        }
        for key, values, commit_version, deleted in entries:
            if key not in chains:
                chains[key] = ([commit_version], [None if deleted else dict(values)])
        self.chains[table] = chains
        self.folded[table] = {
            key: images[-1] for key, (_cvs, images) in chains.items()
            if images[-1] is not None
        }
        self.indexed[table] = {
            (image["v"], key) for key, (_cvs, images) in chains.items()
            for image in images if image is not None
        }

    def vacuum(self):
        for chains in self.chains.values():
            for commit_versions, images in chains.values():
                stale = bisect_right(commit_versions, self.version) - 1
                if stale > 0:
                    del commit_versions[:stale], images[:stale]

    def corrupt(self, table, key):
        chain = self.chains[table].get(key)
        if chain is not None and chain[1][-1] is not None:
            chain[1][-1] = {"id": key, "v": 2 * chain[1][-1]["v"] + 1}

    def read(self, table, key, snapshot):
        commit_versions, images = self.chains[table].get(key, ([], []))
        at = bisect_right(commit_versions, snapshot)
        return images[at - 1] if at else None

    def history(self, table, key):
        commit_versions, images = self.chains[table][key]
        return [(cv, img is None, img) for cv, img in zip(commit_versions, images)]

    def digest(self, table, images):
        out = 0
        for key, values in images.items():
            out ^= row_content_hash(table, key, values)
        return out


def assert_matches(db, ref, every_snapshot):
    assert db.version == ref.version
    for name in TABLES:
        table, chains = db.table(name), ref.chains[name]
        assert list(table._ordered_keys()) == sorted(chains)
        assert table.version_count() == sum(len(cvs) for cvs, _ in chains.values())
        for key in chains:
            assert history(table.latest(key)) == ref.history(name, key)
        if not every_snapshot:
            continue
        for snapshot in range(ref.version + 1):
            visible = {key: ref.read(name, key, snapshot) for key in KEYS}
            for key in KEYS:
                assert table.read(key, snapshot) == visible[key]
                assert table.exists(key, snapshot) == (visible[key] is not None)
            assert table.count(snapshot) == sum(v is not None for v in visible.values())
            for value in {v["v"] for v in visible.values() if v is not None}:
                assert table.lookup("v", value, snapshot) == [
                    key for key in KEYS
                    if (value, key) in ref.indexed[name]
                    and visible[key] is not None and visible[key]["v"] == value
                ]
        latest = {
            key: images[-1] for key, (_cvs, images) in chains.items()
            if images[-1] is not None
        }
        assert db.recompute_digests(name) == {name: ref.digest(name, latest)}
        assert db.digest(name) == ref.digest(name, ref.folded[name])


row_writes = st.lists(
    st.tuples(st.sampled_from(TABLES), st.sampled_from(KEYS),
              st.integers(0, 99), st.booleans()),
    min_size=1, max_size=2, unique_by=lambda w: w[:2],
)
clone_op = st.one_of(
    # apply the next certified writeset this clone has not seen yet;
    # at the tip of the log, certify the drawn one first
    st.tuples(st.just("apply"), row_writes),
    st.tuples(st.just("resync"), st.sampled_from(TABLES),
              st.lists(st.tuples(st.sampled_from(KEYS), st.integers(0, 99),
                                 st.booleans()),
                       max_size=4, unique_by=lambda e: e[0]),
              st.integers(0, 2)),  # how far behind the peer's capture is
    st.tuples(st.just("vacuum")),
    st.tuples(st.just("corrupt"), st.sampled_from(TABLES),
              st.sampled_from(KEYS)),
)
mutations = st.lists(
    st.tuples(st.integers(0, 2), clone_op),  # which clone, what it does
    min_size=1, max_size=30,
)


def certify(log, tip, writes):
    """Append one writeset to the shared log; ``tip`` tracks which rows
    exist at its end, so the ops are the ones a transaction would produce."""
    ops = []
    for table, key, value, delete in writes:
        present = (table, key) in tip
        if delete and present:
            ops.append(dele(table, key))
            tip.discard((table, key))
        else:
            ops.append((upd if present else ins)(table, key, value))
            tip.add((table, key))
    log.append(ws(*ops))


def mutate(db, ref, op, log, tip):
    """Run one mutation through the public write paths of ``db`` and
    through the reference."""
    if op[0] == "apply":
        version = db.version + 1
        if version > len(log):
            certify(log, tip, op[1])
        writeset = log[version - 1]  # the very ops the other clones install
        db.apply_writeset(writeset, version)
        ref.apply(writeset, version)
    elif op[0] == "resync":
        _tag, table, rows, lag = op
        synced = max(0, db.version - lag)
        entries = [
            (key, None if deleted else {"id": key, "v": value}, synced, deleted)
            for key, value, deleted in rows
        ]
        db.resync_table(table, entries, synced_version=synced)
        ref.resync(table, entries, synced)
    elif op[0] == "vacuum":
        db.vacuum()
        ref.vacuum()
    elif op[0] == "corrupt":
        _tag, table, key = op
        corrupt_row_in_place(db, table, key)
        ref.corrupt(table, key)


@settings(max_examples=60, deadline=None)
@given(mutations)
def test_mutating_one_clone_leaves_seed_and_siblings_unchanged(ops):
    seed = make_indexed_db()
    refs = [Reference() for _ in range(3)]
    for table in TABLES:
        for key in range(1, 5):
            seed.load_row(table, {"id": key, "v": key * 10})
            for ref in refs:
                ref.load(table, {"id": key, "v": key * 10})
    clones = [seed.clone(f"clone-{i}") for i in range(3)]
    pristine = image(seed)
    log, tip = [], {(table, key) for table in TABLES for key in range(1, 5)}
    for target, op in ops:
        mutate(clones[target], refs[target], op, log, tip)
        assert image(seed) == pristine
        for index, (clone, ref) in enumerate(zip(clones, refs)):
            assert_matches(clone, ref, every_snapshot=index == target)
    for clone, ref in zip(clones, refs):
        assert_matches(clone, ref, every_snapshot=True)


# -- (d) ownership: a table copies the shared maps on its first write only -----

def load_seed(seed, refs):
    for table in TABLES:
        for key in range(1, 5):
            seed.load_row(table, {"id": key, "v": key * 10})
            for ref in refs:
                ref.load(table, {"id": key, "v": key * 10})


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(
        st.integers(0, 1),  # which writing clone
        st.one_of(
            clone_op,
            # add a row to the initial data set (while still at version 0)
            st.tuples(st.just("load"), st.sampled_from(TABLES),
                      st.sampled_from(KEYS), st.integers(0, 99)),
        ),
    ),
    min_size=1, max_size=30,
))
def test_clones_that_never_write_keep_sharing_the_seed_maps(ops):
    seed = make_indexed_db()
    refs = [Reference() for _ in range(2)]
    load_seed(seed, refs)
    pristine = image(seed)
    clones = [seed.clone(f"clone-{i}") for i in range(4)]
    writers, idle = clones[:2], clones[2:]
    assert writers[0].vacuum() == 0  # trims nothing: takes no copy
    log, tip = [], {(table, key) for table in TABLES for key in range(1, 5)}
    for target, op in ops:
        writer, ref = writers[target], refs[target]
        if op[0] != "load":
            mutate(writer, ref, op, log, tip)
            continue
        _tag, table, key, value = op
        if writer.version == 0 and writer.table(table).latest(key) is None:
            writer.load_row(table, {"id": key, "v": value})
            ref.load(table, {"id": key, "v": value})
    for name in TABLES:
        shared = seed.table(name)
        for db in idle:
            assert db.table(name)._chains is shared._chains
            assert db.table(name)._indexes is shared._indexes
        for db in writers:
            if db.table(name)._chains is shared._chains:
                assert db.table(name)._indexes is shared._indexes
    assert image(seed) == pristine
    for db in idle:
        assert image(db) == pristine
        for name in TABLES:
            for snapshot in range(len(log) + 1):
                for key in KEYS:
                    assert db.table(name).read(key, snapshot) == seed.table(name).read(key, 0)
    for writer, ref in zip(writers, refs):
        assert_matches(writer, ref, every_snapshot=True)


@pytest.mark.parametrize("maintain_digests", [True, False], ids=["digests", "no-digests"])
def test_each_write_path_takes_ownership_once(maintain_digests):
    writes = {
        "apply": lambda db: db.apply_writeset(ws(upd("a", 1, 11)), 1),
        "load_row": lambda db: db.load_row("a", {"id": 9, "v": 90}),
        "bit rot": lambda db: corrupt_row_in_place(db, "a", 1),
        "replace_rows": lambda db: db.resync_table("a", [(1, {"id": 1, "v": 7}, 0, False)], 0),
    }
    seed = make_indexed_db(maintain_digests)
    load_seed(seed, [])
    for name, write in writes.items():
        db, sibling = seed.clone(name), seed.clone("sibling")
        assert db.vacuum() == 0
        assert db.table("a")._chains is seed.table("a")._chains, name
        write(db)
        owned = db.table("a")._chains
        assert owned is not seed.table("a")._chains, name
        assert db.table("a")._indexes is not seed.table("a")._indexes, name
        assert sibling.table("a")._chains is seed.table("a")._chains, name
        assert image(sibling)["a"] == image(seed)["a"], name
        db.apply_writeset(ws(ins("a", 10, 100)), db.version + 1)
        assert db.table("a")._chains is owned, name  # one copy, not one per write


def test_a_vacuum_takes_ownership_only_when_it_trims():
    # A database clones at version 0, where no chain has history to trim;
    # a table can clone later, with history shared.
    table = make_indexed_db().table("a")
    for version, value in enumerate((10, 11, 12)):
        op = upd("a", 1, value) if version else ins("a", 1, value)
        table.apply_op(op, version)
    twin, sibling = table.clone(), table.clone()
    assert twin.vacuum(0) == 0 and twin._chains is table._chains
    assert twin.vacuum(2) == 2
    assert twin._chains is not table._chains
    assert twin.read(1, 1) is None and twin.read(1, 2) == {"id": 1, "v": 12}
    for snapshot, value in enumerate((10, 11, 12)):
        assert sibling.read(1, snapshot) == table.read(1, snapshot) == {"id": 1, "v": value}
    assert sibling._chains is table._chains and table.version_count() == 3
