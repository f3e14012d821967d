"""Counter gate: what one commit leaves behind on the host.

Every replica installs the same certified after-images, so a committed row
write should cost the *cluster* one stored row version — not one per
replica — and CPython's cyclic collector, whose work grows with the
population of GC-tracked objects, should see a commit retain a handful of
objects (writeset, log entry, the row version), not dozens.  A read-only
transaction retains nothing: the metrics collector keeps its measurements
as columns, not as an object per transaction, and (counted in bytes by
tracemalloc, which also sees the objects the collector does not track) no
proxy keeps a request id the network cannot repeat.
Counts, never wall-clock: the run is seeded and the numbers repeat.
"""

import gc
import tracemalloc

from repro import ClusterConfig, ReplicatedDatabase
from repro.metrics import MetricsCollector
from repro.workloads import MicroBenchmark

#: retained GC-tracked objects per commit version (measured 7.42 on
#: CPython 3.11; 9.43 with an object per metrics sample; list-pair chains: 25-35)
MAX_RETAINED_PER_COMMIT = 8
#: retained GC-tracked objects per finished read-only transaction (measured
#: 0.001 on CPython 3.11; 2.001 with a sample object and its stage timings)
MAX_RETAINED_PER_READ_ONLY_TXN = 0.05
#: bytes still allocated per finished read-only transaction, GC-tracked or
#: not (measured 4.8 on CPython 3.11, 5.5 on 3.10, 4.7 on 3.12; 85.3 while
#: every proxy kept the id of every request it was routed, untracked ints
#: the object gate cannot see)
MAX_RETAINED_BYTES_PER_READ_ONLY_TXN = 16
#: storage-layer objects (row versions + chain structure) per committed row
#: write, over all 8 replicas (list-pair chains: 11-26)
MAX_STORAGE_OBJECTS_PER_ROW_WRITE = 2


def census():
    gc.collect()
    tracked = gc.get_objects()
    storage = sum(
        1 for obj in tracked
        if type(obj).__module__ in ("repro.storage.rows", "repro.storage.table")
    )
    return len(tracked), storage


def test_a_read_only_transaction_retains_nothing():
    cluster = ReplicatedDatabase(
        MicroBenchmark(update_types=0, rows_per_table=200),
        ClusterConfig(num_replicas=8, seed=7, record_history=False),
    )
    cluster.add_clients(8, MetricsCollector())
    cluster.run(300.0)  # past the warm-up: pools, caches and queues exist
    finished = cluster.client_pool.completed
    tracked_before, _ = census()
    cluster.run(700.0)
    tracked_after, _ = census()

    txns = cluster.client_pool.completed - finished
    assert txns >= 1_000 and cluster.commit_version == 0
    assert (tracked_after - tracked_before) / txns <= MAX_RETAINED_PER_READ_ONLY_TXN


def test_a_read_only_transaction_retains_no_bytes():
    cluster = ReplicatedDatabase(
        MicroBenchmark(update_types=0, rows_per_table=200),
        ClusterConfig(num_replicas=8, seed=7, record_history=False),
    )
    # The collector's window closes before the census: its columns do not count.
    cluster.add_clients(8, MetricsCollector(measure_end=300.0))
    cluster.run(300.0)  # past the warm-up: pools, caches and queues exist
    finished = cluster.client_pool.completed
    gc.collect()
    tracemalloc.start()
    try:
        cluster.run(1_300.0)
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    txns = cluster.client_pool.completed - finished
    assert txns >= 1_000 and cluster.commit_version == 0
    assert retained / txns <= MAX_RETAINED_BYTES_PER_READ_ONLY_TXN, (
        f"{retained / txns:.1f} B retained per read-only transaction"
    )


def test_a_commit_retains_one_row_version_cluster_wide():
    cluster = ReplicatedDatabase(
        MicroBenchmark(update_types=40, rows_per_table=200),
        ClusterConfig(num_replicas=8, seed=7, record_history=False),
    )
    cluster.add_clients(8, MetricsCollector())
    cluster.run(300.0)  # past the warm-up: pools, caches and queues exist
    first = cluster.commit_version
    tracked_before, storage_before = census()
    cluster.run(700.0)
    last = cluster.commit_version
    tracked_after, storage_after = census()

    commits = last - first
    log = cluster.certifier.log
    written = [
        op for version in range(first + 1, last + 1)
        for op in log.entry(version).writeset
    ]
    assert commits >= 300 and len(written) >= commits
    assert (tracked_after - tracked_before) / commits <= MAX_RETAINED_PER_COMMIT
    assert (
        (storage_after - storage_before) / len(written)
        <= MAX_STORAGE_OBJECTS_PER_ROW_WRITE
    )

    # The replicas hold the same node wherever both have applied the write.
    first_db, last_db = (cluster.replica(i).engine.database for i in (0, 7))
    applied = min(first_db.version, last_db.version)
    assert applied > first
    for version in range(first + 1, applied + 1):
        for op in log.entry(version).writeset:
            mine = first_db.table(op.table).read(op.key, version)
            assert mine is last_db.table(op.table).read(op.key, version)
            assert mine is op.values  # ... and it is the certified image itself
