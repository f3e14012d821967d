"""Partitioned certification: shard scaling and decision identity.

The partitioned commit pipeline splits the certifier into one
:class:`~repro.middleware.shards.CertifierShard` per table-group partition.
Single-partition transactions certify, log and refresh with zero
cross-shard coordination; cross-partition transactions take the
deterministic multi-shard path (shards acquired in canonical partition
order, decision stamped with a per-partition predecessor vector).

This bench drives 1, 2 and 4 shards through identical request streams at
varying cross-partition mixes and reports:

* a **decision-identity check** — every shard count must produce the same
  certify/abort decisions, conflicting versions and global commit versions
  as the single monolithic certifier;
* shard counters: single- vs cross-partition commits, cross-shard stalls,
  per-shard commit distribution;
* an **end-to-end acceptance run** — a 4-partition cluster under a
  single-partition-dominant workload (one cross-partition update type in
  24) must keep cross-shard commits under 5% of all commits with the
  safety audit (``repro.faults.audit``) green, and must install at least
  one version ahead of a replica's watermark; the same run at 1 partition
  installs none.

Run as the CI smoke (small streams, counter-based assertions only —
wall-clock is never asserted, so shared runners can't flake it)::

    PYTHONPATH=src python benchmarks/bench_partitioned_certifier.py --smoke
"""

from __future__ import annotations

import argparse
import random

from repro.core import ClusterConfig, PartitionMap, ReplicatedDatabase
from repro.faults.audit import audit
from repro.metrics import MetricsCollector
from repro.middleware import (
    Certifier,
    CertifierPerformance,
    CertifyReply,
    CertifyRequest,
    PerformanceParams,
)
from repro.sim import Environment, LatencyModel, Network, RngRegistry
from repro.storage.database import Database
from repro.storage.writeset import OpKind, WriteOp, WriteSet
from repro.workloads.base import TemplateCatalog, TransactionTemplate
from repro.workloads.microbench import MicroBenchmark, _read_body, _update_body

TABLES = ("t0", "t1", "t2", "t3")
GROUPS = {
    1: None,
    2: (("t0", "t1"), ("t2", "t3")),
    4: (("t0",), ("t1",), ("t2",), ("t3",)),
}
SHARD_COUNTS = (1, 2, 4)
CROSS_MIXES = (0.0, 0.1, 0.3)


def quiet_params():
    return PerformanceParams(cv=1e-6, replica_speed_spread=0.0)


# ---------------------------------------------------------------------------
# Part A: bare-certifier decision identity at 1/2/4 shards
# ---------------------------------------------------------------------------


def run_certification(num_partitions, steps, cross_fraction, seed=9):
    """Drive one certifier sequentially through a seeded request stream.

    ``cross_fraction`` of the requests write two tables (guaranteed to be
    two *partitions* at 4 one-table groups); the rest write one.  The
    stream feeds back the observed commit version, so identical decisions
    keep the streams identical across shard counts by construction.
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
    certifier = Certifier(
        env=env,
        network=network,
        perf=CertifierPerformance(quiet_params(), RngRegistry(1).stream("cert")),
        replica_names=["replica-0"],
        level="sc-coarse",
        partition_map=partition_map,
    )
    rng = random.Random(seed)
    v_commit = 0
    decisions = []
    for txn_id in range(1, steps + 1):
        num_tables = 2 if rng.random() < cross_fraction else 1
        tables = rng.sample(TABLES, num_tables)
        ops = [
            WriteOp(table, rng.randrange(16), OpKind.UPDATE, {"id": 0, "v": txn_id})
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
    stats = certifier.stats()
    return {
        "num_partitions": num_partitions,
        "cross_fraction": cross_fraction,
        "steps": steps,
        "decisions": decisions,
        "committed": sum(1 for d in decisions if d[0]),
        "aborted": sum(1 for d in decisions if not d[0]),
        "single_partition_commits": stats["single_partition_commits"],
        "cross_partition_commits": stats["cross_partition_commits"],
        "cross_shard_stalls": stats["cross_shard_stalls"],
        "shard_commits": {
            p: shard["certified"] for p, shard in stats["shard"].items()
        },
    }


def certification_rows(steps):
    rows = []
    for cross_fraction in CROSS_MIXES:
        reference = run_certification(1, steps, cross_fraction)
        row = {
            "cross_fraction": cross_fraction,
            "steps": steps,
            "committed": reference["committed"],
            "aborted": reference["aborted"],
            "decisions_identical": True,
            "per_shard": {},
        }
        for num_partitions in SHARD_COUNTS[1:]:
            result = run_certification(num_partitions, steps, cross_fraction)
            assert result["decisions"] == reference["decisions"], (
                f"decision divergence at {num_partitions} partitions, "
                f"cross mix {cross_fraction}"
            )
            row["per_shard"][num_partitions] = {
                "single_partition_commits": result["single_partition_commits"],
                "cross_partition_commits": result["cross_partition_commits"],
                "cross_shard_stalls": result["cross_shard_stalls"],
                "shard_commits": result["shard_commits"],
            }
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Part B: end-to-end acceptance — single-partition-dominant cluster run
# ---------------------------------------------------------------------------


class MostlySinglePartitionBench(MicroBenchmark):
    """MicroBenchmark variant with exactly one cross-partition update type:
    update type 0 writes two tables (two partitions at one-table groups);
    the other 23 update types and every read stay single-table."""

    name = "microbench-xpart"

    def __init__(self, rows_per_table=200):
        super().__init__(
            update_types=24, total_types=40, num_tables=4,
            rows_per_table=rows_per_table,
        )

    def _build_catalog(self) -> TemplateCatalog:
        catalog = TemplateCatalog()
        for type_index in range(self.total_types):
            span = 2 if type_index == 0 else 1
            tables = tuple(
                self.tables[(type_index + offset) % self.num_tables]
                for offset in range(span)
            )
            is_update = type_index < self.update_types
            kind = "update" if is_update else "read"
            catalog.register(
                TransactionTemplate(
                    name=f"micro-{kind}-{type_index}",
                    table_set=frozenset(tables),
                    body=_update_body(tables) if is_update else _read_body(tables),
                    is_update=is_update,
                )
            )
        return catalog


def run_end_to_end(duration_ms, num_partitions=4, clients=6, seed=11):
    # Counted from outside: how many versions any replica installed ahead
    # of its watermark (the predecessor-gated applier at work).
    installed_ahead = 0
    advance_version = Database._advance_version

    def counting_advance(database, commit_version):
        nonlocal installed_ahead
        installed_ahead += commit_version != database.version + 1
        advance_version(database, commit_version)

    Database._advance_version = counting_advance
    try:
        cluster = ReplicatedDatabase(
            MostlySinglePartitionBench(),
            ClusterConfig(
                num_replicas=4,
                level="sc-coarse",
                seed=seed,
                num_partitions=num_partitions,
                partition_table_groups=GROUPS[num_partitions],
            ),
        )
        collector = MetricsCollector(measure_start=0.0)
        cluster.add_clients(clients, collector)
        cluster.run(duration_ms)
        cluster.quiesce()
    finally:
        Database._advance_version = advance_version
    stats = cluster.certifier.stats()
    total = stats["single_partition_commits"] + stats["cross_partition_commits"]
    return {
        "duration_ms": duration_ms,
        "committed": collector.summary().committed,
        "certified": stats["certified"],
        "single_partition_commits": stats["single_partition_commits"],
        "cross_partition_commits": stats["cross_partition_commits"],
        "cross_commit_fraction": round(
            stats["cross_partition_commits"] / max(total, 1), 4
        ),
        "cross_shard_stalls": stats["cross_shard_stalls"],
        "installed_ahead": installed_ahead,
        "shard_commits": {
            p: shard["certified"] for p, shard in stats["shard"].items()
        },
        "audit": audit(cluster),
    }


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def smoke():
    """CI smoke: small streams, deterministic counter assertions."""
    rows = certification_rows(steps=120)
    for row in rows:
        assert row["decisions_identical"]
        for num_partitions, result in row["per_shard"].items():
            total = (
                result["single_partition_commits"]
                + result["cross_partition_commits"]
            )
            assert total == row["committed"]
            if row["cross_fraction"] == 0.0:
                assert result["cross_partition_commits"] == 0
            else:
                assert result["cross_partition_commits"] > 0
    spread = rows[0]["per_shard"][4]["shard_commits"]
    assert sum(1 for count in spread.values() if count > 0) >= 2, (
        f"commits did not spread across shards: {spread}"
    )
    end_to_end = run_end_to_end(duration_ms=1_200.0)
    assert end_to_end["committed"] > 200
    assert end_to_end["cross_partition_commits"] > 0
    assert end_to_end["cross_commit_fraction"] < 0.05, end_to_end
    assert end_to_end["audit"].ok, end_to_end["audit"].failures
    # One applier at every shard count: vectors let it install ahead of the
    # watermark at 4 partitions; without them it never does.
    assert end_to_end["installed_ahead"] >= 1, end_to_end
    one_shard = run_end_to_end(duration_ms=1_200.0, num_partitions=1)
    assert one_shard["committed"] > 200
    assert one_shard["installed_ahead"] == 0, one_shard
    print("partitioned certifier smoke OK:")
    for row in rows:
        counters = row["per_shard"][4]
        print(
            f"  cross mix {row['cross_fraction']:<4}: {row['committed']:>4} commits"
            f" ({counters['cross_partition_commits']} cross,"
            f" {counters['cross_shard_stalls']} stalls) — decisions identical"
        )
    print(
        f"  end-to-end 4p: {end_to_end['committed']} committed,"
        f" cross fraction {end_to_end['cross_commit_fraction']:.2%},"
        f" {end_to_end['installed_ahead']} installs ahead of the watermark"
        f" ({one_shard['installed_ahead']} at 1p), audit green"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small streams + assertions only (CI smoke)",
    )
    parser.parse_args()
    smoke()


if __name__ == "__main__":
    main()
