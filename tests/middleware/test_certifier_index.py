"""The certification index: unit behaviour + differential equivalence.

The last-writer version index replaces the certifier's linear conflict
scan; its contract is *byte-identical decisions* — same commit versions,
same ``conflict_with`` abort causes — under every wrinkle the protocol can
throw at it: overwritten keys, serializable readsets, log truncation
(including the conservative-abort edge), snapshot/restore mid-stream.  The
differential tests here run the certifier and a twin whose conflict check is
the reference window scan (``scan_first_conflict``) side by side on
identical randomized request streams and fail on the first divergence.
"""

import random

import pytest

from repro.middleware import (
    CertificationIndex,
    Certifier,
    CertifierPerformance,
    CertifyReply,
    CertifyRequest,
)
from repro.middleware.certindex import scan_first_conflict
from repro.middleware.durability import DecisionLog, LogEntry
from repro.sim import RngRegistry
from repro.storage import OpKind, WriteOp, WriteSet

from .conftest import fixed_latency_network, low_variance_params

TABLES = ("t0", "t1", "t2")


def ws(*slots, table="t0"):
    """A writeset over (table, key) slots; bare ints key into ``table``."""
    ops = []
    for slot in slots:
        tbl, key = slot if isinstance(slot, tuple) else (table, slot)
        ops.append(WriteOp(tbl, key, OpKind.UPDATE, {"id": key, "v": 1}))
    return WriteSet(ops)


def entry(version, writeset):
    return LogEntry(version, txn_id=version, origin="r", writeset=writeset,
                    request_id=version)


class TestCertificationIndexUnit:
    def test_empty_index_finds_nothing(self):
        index = CertificationIndex()
        assert index.first_conflict([("t0", 1)], 0) is None
        assert index.last_writer("t0", 1) == 0
        assert index.table_max("t0") == 0
        assert len(index) == 0

    def test_records_and_answers_first_writer_after_snapshot(self):
        index = CertificationIndex()
        index.record(1, ws(1))
        index.record(2, ws(1))
        index.record(3, ws(2))
        # Overwritten key: the answer is the FIRST writer in the window
        # (what the reference scan reports), not the last.
        assert index.first_conflict([("t0", 1)], 0) == 1
        assert index.first_conflict([("t0", 1)], 1) == 2
        assert index.first_conflict([("t0", 1)], 2) is None
        assert index.last_writer("t0", 1) == 2
        assert index.table_max("t0") == 3

    def test_minimum_over_the_request_key_set(self):
        index = CertificationIndex()
        index.record(1, ws(5))
        index.record(2, ws(7))
        assert index.first_conflict([("t0", 7), ("t0", 5)], 0) == 1

    def test_table_fast_path_skips_key_probes(self):
        index = CertificationIndex()
        index.record(1, ws(1, table="t0"))
        index.record(2, ws(1, table="t1"))
        before = index.key_probes
        # Snapshot past every writer of t0: the per-table max misses, so the
        # key map is never probed for those slots.
        assert index.first_conflict([("t0", k) for k in range(50)], 2) is None
        assert index.key_probes == before
        assert index.table_probes > 0

    def test_truncate_to_drops_versions_in_lockstep(self):
        index = CertificationIndex()
        entries = [entry(1, ws(1)), entry(2, ws(1)), entry(3, ws(2))]
        for e in entries:
            index.record(e.commit_version, e.writeset)
        index.truncate_to(2, entries[:2])
        # Key 1's writers (v1, v2) are gone entirely; key 2 survives.
        assert index.last_writer("t0", 1) == 0
        assert index.first_conflict([("t0", 2)], 2) == 3
        assert len(index) == 1

    def test_from_log_rebuilds_the_untruncated_suffix(self):
        log = DecisionLog()
        for version in range(1, 6):
            log.append(entry(version, ws(version % 3)))
        log.truncate_to(2)
        index = CertificationIndex.from_log(log)
        rebuilt = CertificationIndex()
        for version in range(3, 6):
            rebuilt.record(version, log.entry(version).writeset)
        probe = [("t0", k) for k in range(3)]
        for snapshot in range(2, 6):
            assert index.first_conflict(probe, snapshot) == rebuilt.first_conflict(
                probe, snapshot
            )


# ---------------------------------------------------------------------------
# Differential harness: the certifier and its scan twin fed the same request
# stream must never diverge.
# ---------------------------------------------------------------------------


class ScanCertifier(Certifier):
    """The certifier with its conflict check replaced by the specification:
    the reference window scan (same conservative abort below truncation)."""

    def _find_conflict(self, request):
        low = request.snapshot_version
        if low < self.log.truncation_version:
            return low + 1
        slots = request.writeset.slots | (request.readset or frozenset())
        version, compared = scan_first_conflict(self.log, slots, low)
        self.row_comparisons += compared
        return version


class CertifierPair:
    """Two certifiers (index + scan) driven in lockstep on one simulation."""

    def __init__(self, env, level="sc-coarse"):
        self.env = env
        self.network = fixed_latency_network(env)
        self.level = level
        self.origins = {
            side: self.network.register(f"origin-{side}") for side in ("a", "b")
        }
        self.generation = 0
        self.certifiers = {
            "a": self._make("a", Certifier, DecisionLog()),
            "b": self._make("b", ScanCertifier, DecisionLog()),
        }
        self.request_id = 0
        self.total_certified = 0
        self.total_aborted = 0

    def _make(self, side, cls, log):
        return cls(
            env=self.env,
            network=self.network,
            perf=CertifierPerformance(
                low_variance_params(), RngRegistry(1).stream(f"cert-{side}")
            ),
            replica_names=[f"origin-{side}"],
            level=self.level,
            name=f"cert-{side}-{self.generation}",
            log=log,
        )

    def _drain_reply(self, side):
        replies = []
        mailbox = self.origins[side]
        while len(mailbox):
            message = mailbox.receive().value
            if isinstance(message, CertifyReply):
                replies.append(message)
        assert len(replies) == 1
        return replies[0]

    def certify(self, snapshot, writeset, readset=None):
        """Submit the same request to both sides; assert identical replies."""
        self.request_id += 1
        for side, certifier in self.certifiers.items():
            self.network.send(
                f"origin-{side}",
                certifier.name,
                CertifyRequest(
                    txn_id=self.request_id,
                    origin=f"origin-{side}",
                    snapshot_version=snapshot,
                    writeset=writeset,
                    request_id=self.request_id,
                    readset=readset,
                ),
            )
        self.env.run()
        reply_a = self._drain_reply("a")
        reply_b = self._drain_reply("b")
        assert (
            reply_a.certified,
            reply_a.commit_version,
            reply_a.conflict_with,
        ) == (
            reply_b.certified,
            reply_b.commit_version,
            reply_b.conflict_with,
        ), f"index/scan divergence on request {self.request_id}"
        if reply_a.certified:
            self.total_certified += 1
        else:
            self.total_aborted += 1
        return reply_a

    def truncate(self, version):
        """Advance both replicas' applied versions and truncate both logs."""
        dropped = set()
        for side, certifier in self.certifiers.items():
            certifier.applied_versions[f"origin-{side}"] = version
            dropped.add(certifier.truncate_log())
        assert len(dropped) == 1, "index/scan truncation divergence"

    def snapshot_restore(self):
        """Mid-stream failover on both sides through the public transfer
        API: clone the log, snapshot/restore the soft state, halt the old
        certifier — the promoted copies must keep agreeing."""
        self.generation += 1
        successors = {}
        for side, old in self.certifiers.items():
            successor = self._make(side, type(old), old.log.clone())
            successor.restore_state(old.snapshot_state())
            old.halt()
            successors[side] = successor
        self.certifiers = successors

    @property
    def commit_version(self):
        versions = {c.commit_version for c in self.certifiers.values()}
        assert len(versions) == 1
        return versions.pop()

    @property
    def truncation_version(self):
        return self.certifiers["a"].log.truncation_version


def random_writeset(rng):
    size = rng.randint(1, 4)
    slots = {
        (rng.choice(TABLES), rng.randint(0, 25)) for _ in range(size)
    }
    return ws(*slots)


def random_readset(rng):
    if rng.random() >= 0.3:
        return None
    return frozenset(
        (rng.choice(TABLES), rng.randint(0, 25)) for _ in range(rng.randint(1, 3))
    )


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_stream_never_diverges(self, env, seed):
        """Randomized updates, serializable readsets, log truncation and
        snapshot/restore mid-stream: identical decisions throughout."""
        rng = random.Random(seed)
        pair = CertifierPair(env)
        for _step in range(150):
            roll = rng.random()
            if roll < 0.80 or pair.commit_version == 0:
                low = pair.truncation_version
                snapshot = rng.randint(low, pair.commit_version)
                pair.certify(snapshot, random_writeset(rng), random_readset(rng))
            elif roll < 0.93:
                horizon = rng.randint(
                    pair.truncation_version, pair.commit_version
                )
                pair.truncate(horizon)
            else:
                pair.snapshot_restore()
        certifier_a, certifier_b = pair.certifiers.values()
        assert certifier_a.certified_count == certifier_b.certified_count
        assert certifier_a.abort_count == certifier_b.abort_count
        assert pair.total_certified > 0
        assert pair.total_aborted > 0

    def test_overwritten_key_reports_first_conflicting_version(self, env):
        pair = CertifierPair(env)
        pair.certify(0, ws(1))          # v1 writes key 1
        pair.certify(1, ws(1))          # v2 overwrites key 1
        reply = pair.certify(0, ws(1))  # conflicts with v1 first
        assert not reply.certified
        assert reply.conflict_with == 1

    def test_conservative_abort_below_truncation_matches(self, env):
        pair = CertifierPair(env)
        for key in range(4):
            pair.certify(pair.commit_version, ws(key))
        pair.truncate(3)
        # Snapshot inside the truncated prefix: both sides abort with the
        # same conservative cause, even for a key nobody ever wrote.
        reply = pair.certify(1, ws(("t2", 99)))
        assert not reply.certified
        assert reply.conflict_with == 2

    def test_readset_conflicts_match(self, env):
        pair = CertifierPair(env)
        pair.certify(0, ws(1))
        reply = pair.certify(
            0, ws(("t1", 5)), readset=frozenset({("t0", 1)})
        )
        assert not reply.certified
        assert reply.conflict_with == 1

    def test_index_gc_stays_in_lockstep_with_truncation(self, env):
        pair = CertifierPair(env)
        for key in range(8):
            pair.certify(pair.commit_version, ws(key % 3))
        index = pair.certifiers["a"]._index
        keys_before = len(index)
        pair.truncate(6)
        assert len(index) < keys_before
        # Decisions over the surviving window still agree.
        for snapshot in range(6, pair.commit_version + 1):
            pair.certify(snapshot, ws(rng_key := snapshot % 3))

    def test_index_does_sublinear_work_on_stale_snapshots(self, env):
        """The counter the CI perf smoke keys on: certifying against a
        1000-deep conflict window costs the scan ~window comparisons and the
        index ~|writeset|."""
        pair = CertifierPair(env)
        for key in range(200):
            pair.certify(pair.commit_version, ws(("t0", key)))
        index_cert = pair.certifiers["a"]
        scan_cert = pair.certifiers["b"]
        index_before = index_cert.row_comparisons
        scan_before = scan_cert.row_comparisons
        pair.certify(0, ws(("t1", 1)))  # maximally stale, no conflict
        index_cost = index_cert.row_comparisons - index_before
        scan_cost = scan_cert.row_comparisons - scan_before
        assert scan_cost >= 200
        assert index_cost <= 2  # one table probe + at most one key probe
