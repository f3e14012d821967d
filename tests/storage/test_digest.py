"""Tests for the incremental per-table state digests (anti-entropy layer).

The core contract: the incrementally maintained digest equals the digest a
full rescan computes, after *any* interleaving of writeset applies, bulk
loads and vacuums — including out-of-order partitioned applies
(``apply_writeset(..., after=…)``).  Divergence from that contract is exactly what the
scrubber exists to detect, so the oracle must be airtight.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.corruption import apply_writeset_corrupted, corrupt_row_in_place
from repro.storage import Column, Database, OpKind, TableSchema, WriteOp, WriteSet
from repro.storage.digest import DigestTracker, row_content_hash


def make_db(tables=("a", "b"), **kwargs):
    db = Database(**kwargs)
    for name in tables:
        db.create_table(
            TableSchema(name, [Column("id", int), Column("v", int)], "id")
        )
    return db


def ws(*ops):
    return WriteSet(list(ops))


def ins(table, key, value):
    return WriteOp(table, key, OpKind.INSERT, {"id": key, "v": value})


def upd(table, key, value):
    return WriteOp(table, key, OpKind.UPDATE, {"id": key, "v": value})


def dele(table, key):
    return WriteOp(table, key, OpKind.DELETE, None)


class TestRowContentHash:
    def test_never_zero(self):
        # 0 is the identity of XOR; a zero hash would make a row invisible
        # to the digest.
        assert row_content_hash("t", 1, {"id": 1, "v": 2}) != 0

    def test_column_order_irrelevant(self):
        assert row_content_hash("t", 1, {"a": 1, "b": 2}) == row_content_hash(
            "t", 1, {"b": 2, "a": 1}
        )

    def test_table_and_key_salt(self):
        values = {"id": 1, "v": 2}
        assert row_content_hash("t", 1, values) != row_content_hash("u", 1, values)
        assert row_content_hash("t", 1, values) != row_content_hash("t", 2, values)


class TestIncrementalDigest:
    def test_empty_tables_digest_zero(self):
        db = make_db()
        assert db.digests() == {"a": 0, "b": 0}
        assert db.recompute_digests() == db.digests()

    def test_incremental_matches_recompute_through_lifecycle(self):
        db = make_db()
        db.load_row("a", {"id": 1, "v": 10})
        db.apply_writeset(ws(ins("a", 2, 20), ins("b", 1, 5)), 1)
        db.apply_writeset(ws(upd("a", 1, 11)), 2)
        db.apply_writeset(ws(dele("b", 1)), 3)
        assert db.recompute_digests() == db.digests()

    def test_delete_and_reinsert_round_trips(self):
        db = make_db()
        db.apply_writeset(ws(ins("a", 1, 10)), 1)
        before = db.digest("a")
        db.apply_writeset(ws(dele("a", 1)), 2)
        assert db.digest("a") == 0
        db.apply_writeset(ws(ins("a", 1, 10)), 3)
        assert db.digest("a") == before
        assert db.recompute_digests() == db.digests()

    def test_vacuum_does_not_change_digests(self):
        db = make_db()
        for version in range(1, 20):
            db.apply_writeset(ws(upd("a", 1, version) if version > 1
                                 else ins("a", 1, version)), version)
        before = db.digests()
        assert db.vacuum() > 0
        assert db.digests() == before
        assert db.recompute_digests() == before

    def test_order_independence_across_partitions(self):
        """Two copies applying the same writesets in different per-partition
        orders converge to the same digests."""
        forward = make_db()
        shuffled = make_db()
        # (version, writeset, the partition's previous version)
        writes = [
            (1, ws(ins("a", 1, 1)), ()),
            (2, ws(ins("b", 1, 2)), ()),
            (3, ws(upd("a", 1, 3)), (1,)),
            (4, ws(ins("b", 2, 4)), (2,)),
        ]
        for version, writeset, _after in writes:
            forward.apply_writeset(writeset, version)
        # Partition {a}: versions 1, 3; partition {b}: versions 2, 4 —
        # delivered interleaved the other way around.
        for version, writeset, after in (writes[1], writes[3], writes[0], writes[2]):
            shuffled.apply_writeset(writeset, version, after=after)
        assert forward.digests() == shuffled.digests()
        assert shuffled.recompute_digests() == shuffled.digests()


class TestCorruptionVisibility:
    def test_corrupt_row_hides_from_incremental_but_not_recompute(self):
        db = make_db()
        db.apply_writeset(ws(ins("a", 1, 10)), 1)
        clean = dict(db.digests())
        assert corrupt_row_in_place(db, "a", 1)
        # The incremental bookkeeping was bypassed: only a rescan sees it.
        assert db.digests() == clean
        assert db.recompute_digests() != clean

    def test_skip_mode_advances_version_without_rows(self):
        db = make_db()
        apply_writeset_corrupted(db, ws(ins("a", 1, 10)), 1, mode="skip")
        assert db.version == 1
        assert db.table("a").read(1, 1) is None
        # Both digest views agree with each other (nothing was written) but
        # disagree with what the certifier expects at v1.
        assert db.digests() == db.recompute_digests() == {"a": 0, "b": 0}

    def test_double_mode_diverges_content_silently(self):
        db = make_db()
        db.apply_writeset(ws(ins("a", 1, 10)), 1)
        apply_writeset_corrupted(db, ws(upd("a", 1, 20)), 2, mode="double")
        assert db.table("a").read(1, 2)["v"] == 41  # 20 doubled in place
        clean_view = db.digests()
        assert db.recompute_digests() != clean_view

    def test_resync_restores_parity(self):
        healthy = make_db()
        sick = make_db()
        for db in (healthy, sick):
            db.apply_writeset(ws(ins("a", 1, 10), ins("a", 2, 20)), 1)
        corrupt_row_in_place(sick, "a", 1)
        entries = list(healthy.table("a").latest_states())
        assert sick.resync_table("a", entries, synced_version=1) == 1
        assert sick.recompute_digests() == healthy.recompute_digests()

    def test_resync_keeps_rows_newer_than_capture(self):
        """Repair under load: rows written after the peer's capture must
        survive the sync untouched."""
        db = make_db()
        db.apply_writeset(ws(ins("a", 1, 10), ins("a", 2, 20)), 1)
        peer_entries = list(db.table("a").latest_states())  # capture at v1
        db.apply_writeset(ws(upd("a", 2, 99)), 2)
        corrupt_row_in_place(db, "a", 1)
        db.resync_table("a", peer_entries, synced_version=1)
        assert db.table("a").read(1, db.version)["v"] == 10  # repaired
        assert db.table("a").read(2, db.version)["v"] == 99  # kept
        assert db.recompute_digests() == db.digests()


class TestDigestTracker:
    def test_from_database_requires_v0(self):
        db = make_db()
        db.apply_writeset(ws(ins("a", 1, 1)), 1)
        with pytest.raises(ValueError):
            DigestTracker.from_database(db)

    def test_expected_at_matches_replica_at_every_version(self):
        db = make_db()
        db.load_row("a", {"id": 1, "v": 0})
        tracker = DigestTracker.from_database(db)
        writes = [
            (1, ws(upd("a", 1, 5))),
            (2, ws(ins("b", 7, 7))),
            (3, ws(dele("b", 7), ins("a", 2, 2))),
        ]
        snapshots = {0: db.digests()}
        for version, writeset in writes:
            db.apply_writeset(writeset, version)
            tracker.apply(writeset, version)
            snapshots[version] = dict(db.digests())
        for version, digests in snapshots.items():
            assert tracker.expected_at(version) == digests

    def test_truncate_forgets_old_versions(self):
        db = make_db()
        tracker = DigestTracker.from_database(db)
        for version in range(1, 6):
            writeset = ws(upd("a", 1, version) if version > 1
                          else ins("a", 1, version))
            db.apply_writeset(writeset, version)
            tracker.apply(writeset, version)
        tracker.truncate(3)
        assert tracker.expected_at(2) is None
        assert tracker.expected_at(5) == db.digests()


# -- the hypothesis property (satellite c) ----------------------------------

operations = st.lists(
    st.one_of(
        st.tuples(st.just("apply"), st.sampled_from(["a", "b"]),
                  st.integers(1, 6), st.integers(0, 99), st.booleans()),
        st.tuples(st.just("load"), st.sampled_from(["a", "b"]),
                  st.integers(1, 6), st.integers(0, 99)),
        st.tuples(st.just("vacuum")),
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=60)
@given(operations)
def test_incremental_digest_equals_recompute_under_random_interleavings(ops):
    """After any interleaving of applies, bulk loads and vacuums, the
    incrementally maintained digests equal a fresh full-scan recomputation."""
    db = make_db()
    version = 0
    loaded_phase = True
    loaded: set = set()
    for op in ops:
        if op[0] == "load" and loaded_phase:
            _tag, table, key, value = op
            if (table, key) in loaded:
                continue  # bulk load populates each key once
            loaded.add((table, key))
            db.load_row(table, {"id": key, "v": value})
        elif op[0] == "apply":
            _tag, table, key, value, delete = op
            loaded_phase = False
            version += 1
            if delete and db.table(table).read(key, version - 1) is not None:
                db.apply_writeset(ws(dele(table, key)), version)
            else:
                kind = upd if db.table(table).read(key, version - 1) else ins
                db.apply_writeset(ws(kind(table, key, value)), version)
        elif op[0] == "vacuum":
            db.vacuum()
    assert db.recompute_digests() == db.digests()


@settings(max_examples=40)
@given(
    st.lists(
        st.tuples(st.sampled_from(["a", "b"]), st.integers(1, 5),
                  st.integers(0, 99)),
        min_size=1, max_size=24,
    ),
    st.randoms(use_true_random=False),
)
def test_out_of_order_partitioned_applies_converge(writes, shuffler):
    """Gated only on its own partition's predecessor (``after=``), each
    partition's stream can interleave any way; the digests must converge to
    the in-order result regardless."""
    in_order = make_db()
    shuffled = make_db()
    versioned = []
    seen: dict[tuple, int] = {}
    for offset, (table, key, value) in enumerate(writes):
        version = offset + 1
        kind = upd if (table, key) in seen else ins
        seen[(table, key)] = version
        versioned.append((version, table, ws(kind(table, key, value))))
    for version, _table, writeset in versioned:
        in_order.apply_writeset(writeset, version)
    # Per-table streams stay in order (that is the partitioned guarantee);
    # the interleaving *across* tables is arbitrary.
    streams = {"a": [], "b": []}
    for version, table, writeset in versioned:
        after = tuple(v for v, _ws, _after in streams[table][-1:])
        streams[table].append((version, writeset, after))
    order = []
    pick_from = [t for t in ("a", "b") for _ in streams[t]]
    shuffler.shuffle(pick_from)
    cursors = {"a": 0, "b": 0}
    for table in pick_from:
        order.append(streams[table][cursors[table]])
        cursors[table] += 1
    for version, writeset, after in order:
        shuffled.apply_writeset(writeset, version, after=after)
    assert shuffled.digests() == in_order.digests()
    assert shuffled.recompute_digests() == shuffled.digests()
