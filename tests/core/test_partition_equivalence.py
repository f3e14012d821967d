"""Equivalence and safety audit of the partitioned commit pipeline.

Three layers of evidence that sharding certification by table-group changes
*where* work happens but never *what* is decided:

* **trace identity at num_partitions=1** — passing every partitioning knob
  at its default reproduces the pre-partitioning golden run byte-for-byte;
* **differential decisions** — identical randomized request streams driven
  sequentially through 1, 2 and 4 shards — with log truncation and
  snapshot/restore failovers mid-stream — produce identical certify/abort
  decisions (including the conflicting version reported, conservative
  aborts below the truncation point too) and identical commit versions, and
  the one decision log is the same entry for entry at every shard count,
  its predecessor vectors naming exactly the previous commit of each
  partition written;
* **end-to-end checkers** — full clusters at 2 and 4 partitions (including
  a cross-partition-heavy workload) keep the strong-consistency and
  session-consistency audits green.
"""

import random

import pytest

from repro.core import ClusterConfig, PartitionMap, ReplicatedDatabase
from repro.histories import is_session_consistent, is_strongly_consistent
from repro.metrics import MetricsCollector
from repro.middleware import (
    Certifier,
    CertifierPerformance,
    CertifyReply,
    CertifyRequest,
    PerformanceParams,
)
from repro.sim import Environment, LatencyModel, Network, RngRegistry
from repro.storage.writeset import OpKind, WriteOp, WriteSet
from repro.workloads import MicroBenchmark
from tests.core.test_equivalence import GOLDEN, fingerprint

TABLES = ("t0", "t1", "t2", "t3")
#: explicit table-group layouts so the table→partition assignment is
#: deterministic (no reliance on the hash fallback spreading evenly)
GROUPS = {
    2: (("t0", "t1"), ("t2", "t3")),
    4: (("t0",), ("t1",), ("t2",), ("t3",)),
}


def quiet_params():
    return PerformanceParams(cv=1e-6, replica_speed_spread=0.0)


class TestPartitionKnobsDefaultOff:
    """The partitioned pipeline must be trace-neutral when off: passing every
    new knob at its default reproduces the golden run exactly."""

    def test_explicit_default_knobs_are_byte_identical(self):
        cluster = ReplicatedDatabase(
            MicroBenchmark(update_types=10, rows_per_table=200),
            ClusterConfig(
                num_replicas=4,
                level="sc-coarse",
                seed=11,
                num_partitions=1,
                partition_table_groups=None,
                departed_grace_ms=None,
            ),
        )
        collector = MetricsCollector(measure_start=0.0)
        cluster.add_clients(6, collector)
        cluster.run(2_500.0)
        assert fingerprint(cluster, collector) == GOLDEN["sc-coarse"]
        assert cluster.partition_map is None
        stats = cluster.certifier.stats()
        assert stats["num_partitions"] == 1
        assert list(stats["shard"]) == [0]  # the monolith is the one-shard case
        assert stats["cross_partition_commits"] == 0
        assert stats["single_partition_commits"] == stats["certified"]


# ---------------------------------------------------------------------------
# Differential decision identity: 1 vs 2 vs 4 shards on one request stream
# ---------------------------------------------------------------------------


def drive_certifier(num_partitions, steps=250, seed=9, maintenance=True):
    """Drive a bare certifier sequentially through a seeded random stream of
    single- and multi-table writesets with lagging snapshots.

    Sequential driving (one request fully decided before the next is sent)
    removes scheduling as a variable: any decision difference between shard
    counts is a protocol difference.  The stream generator feeds back the
    observed commit version, so identical decisions keep the streams
    identical across runs by construction.

    With ``maintenance`` the stream also truncates the log every 40 requests
    (to three versions below ``V_commit``, so later lagging snapshots fall
    into the truncated prefix) and every 90 requests fails over to a
    successor built through ``snapshot_state``/``restore_state`` on a log
    clone.  Returns ``(decisions, certifier, conservative_aborts)``.
    """
    env = Environment()
    network = Network(
        env, RngRegistry(42).stream("net"), LatencyModel(base=0.05, jitter=0.0)
    )
    origin = network.register("replica-0")
    partition_map = (
        PartitionMap(num_partitions, table_groups=GROUPS[num_partitions])
        if num_partitions > 1
        else None
    )

    def make(generation, log=None):
        return Certifier(
            env=env,
            network=network,
            perf=CertifierPerformance(quiet_params(), RngRegistry(1).stream("cert")),
            replica_names=["replica-0"],
            level="sc-coarse",
            name=f"certifier-g{generation}",
            log=log,
            partition_map=partition_map,
        )

    certifier = make(0)
    rng = random.Random(seed)
    v_commit = 0
    decisions = []
    conservative_aborts = 0
    for txn_id in range(1, steps + 1):
        if maintenance and txn_id % 40 == 0:
            certifier.applied_versions["replica-0"] = max(0, v_commit - 3)
            certifier.truncate_log()
        if maintenance and txn_id % 90 == 0:
            successor = make(txn_id, log=certifier.log.clone())
            successor.restore_state(certifier.snapshot_state())
            certifier.halt()
            certifier = successor
        num_tables = 2 if rng.random() < 0.3 else 1
        tables = rng.sample(TABLES, num_tables)
        ops = [
            WriteOp(table, rng.randrange(12), OpKind.UPDATE, {"id": 0, "v": txn_id})
            for table in tables
        ]
        snapshot = max(0, v_commit - rng.randrange(8))
        network.send(
            "replica-0",
            certifier.name,
            CertifyRequest(
                txn_id=txn_id,
                origin="replica-0",
                snapshot_version=snapshot,
                writeset=WriteSet(ops),
                request_id=txn_id,
            ),
        )
        env.run()
        while len(origin):
            message = origin.receive().value
            if isinstance(message, CertifyReply):
                decisions.append(
                    (message.certified, message.commit_version, message.conflict_with)
                )
                if message.certified:
                    v_commit = message.commit_version
                elif snapshot < certifier.log.truncation_version:
                    assert message.conflict_with == snapshot + 1
                    conservative_aborts += 1
    assert len(decisions) == steps
    return decisions, certifier, conservative_aborts


class TestDifferentialDecisions:
    def test_decisions_identical_across_shard_counts(self):
        """Truncation and snapshot/restore mid-stream included: a snapshot
        below the truncation point aborts conservatively, with the same
        ``conflict_with``, whatever the shard count."""
        reference, single, conservative = drive_certifier(1)
        commits = [d for d in reference if d[0]]
        aborts = [d for d in reference if not d[0]]
        # The stream must actually exercise every outcome.
        assert len(commits) > 50
        assert len(aborts) > 5
        assert conservative > 0
        assert single.log.truncation_version > 0
        for num_partitions in (2, 4):
            decisions, certifier, _ = drive_certifier(num_partitions)
            assert decisions == reference, (
                f"decision divergence at {num_partitions} partitions"
            )
            assert certifier.log.truncation_version == single.log.truncation_version
            stats = certifier.stats()
            assert stats["certified"] == single.stats()["certified"]

    @pytest.mark.parametrize("num_partitions", [2, 4])
    def test_one_log_for_every_shard_count_and_prevs_name_predecessors(
        self, num_partitions
    ):
        """The log at N shards equals the one-shard log entry for entry
        (whole writesets, same versions); the only addition is ``prevs``,
        which names — for exactly the partitions the commit wrote — the
        previous commit there."""
        _, single, _ = drive_certifier(1, maintenance=False)
        _, sharded, _ = drive_certifier(num_partitions, maintenance=False)
        partition_map = sharded.partition_map
        assert len(sharded.log) == len(single.log) > 50
        newest = {p: 0 for p in range(num_partitions)}
        cross = 0
        for ours, theirs in zip(sharded.log, single.log):
            assert theirs.prevs == ()  # one shard: the predecessor is v-1
            assert (
                ours.commit_version, ours.txn_id, ours.origin, ours.request_id,
                list(ours.writeset),
            ) == (
                theirs.commit_version, theirs.txn_id, theirs.origin,
                theirs.request_id, list(theirs.writeset),
            )
            written = partition_map.partitions_for(ours.writeset.tables)
            assert ours.prevs == tuple((p, newest[p]) for p in written)
            for p in written:
                newest[p] = ours.commit_version
            cross += len(written) > 1
        assert cross, "the stream produced no cross-partition commits"
        stats = sharded.stats()
        assert stats["cross_partition_commits"] == cross
        assert stats["single_partition_commits"] == len(sharded.log) - cross
        assert {p: s["last_global"] for p, s in stats["shard"].items()} == newest


# ---------------------------------------------------------------------------
# End-to-end safety audit at 2 and 4 partitions
# ---------------------------------------------------------------------------


def run_partitioned(level, num_partitions, tables_per_txn=1):
    cluster = ReplicatedDatabase(
        MicroBenchmark(
            update_types=10, rows_per_table=200, tables_per_txn=tables_per_txn
        ),
        ClusterConfig(
            num_replicas=4,
            level=level,
            seed=11,
            num_partitions=num_partitions,
            partition_table_groups=GROUPS[num_partitions],
        ),
    )
    collector = MetricsCollector(measure_start=0.0)
    cluster.add_clients(6, collector)
    cluster.run(2_500.0)
    cluster.quiesce()
    return cluster, collector


class TestEndToEndCheckers:
    @pytest.mark.parametrize("num_partitions", [2, 4])
    def test_strong_consistency_green(self, num_partitions):
        cluster, collector = run_partitioned("sc-coarse", num_partitions)
        assert collector.summary().committed > 1_000
        assert is_strongly_consistent(cluster.history)
        stats = cluster.certifier.stats()
        assert (
            stats["single_partition_commits"] + stats["cross_partition_commits"]
            == stats["certified"]
        )

    @pytest.mark.parametrize("num_partitions", [2, 4])
    def test_session_consistency_green(self, num_partitions):
        cluster, collector = run_partitioned("session", num_partitions)
        assert collector.summary().committed > 1_000
        assert is_session_consistent(cluster.history)

    def test_cross_partition_heavy_workload_stays_strong(self):
        """Two-table transactions at one-table-per-partition: every update is
        a cross-partition commit, exercising the multi-shard certify path,
        the predecessor-vector sync waits and the out-of-order refresh apply
        end to end."""
        cluster, collector = run_partitioned("sc-coarse", 4, tables_per_txn=2)
        assert collector.summary().committed > 1_000
        assert is_strongly_consistent(cluster.history)
        stats = cluster.certifier.stats()
        assert stats["cross_partition_commits"] > 0
        assert stats["single_partition_commits"] == 0
        # Every replica converged to the global commit version.
        for proxy in cluster.replicas.values():
            assert proxy.v_local == cluster.commit_version

    def test_replicas_converge_to_watermark(self):
        cluster, _ = run_partitioned("sc-coarse", 4)
        target = cluster.commit_version
        assert target > 0
        for proxy in cluster.replicas.values():
            assert proxy.v_local == target
            assert proxy.engine.database.version == target
