"""Hot-path counter gates: kernel fast path, compiled SQL plans, O(1)
early certification, handler delivery, per-request routing and records,
an initial load that builds no commit ops, replicas that share every
table they have not written, and a refresh fan-out whose Python calls per
commit version stay under a gate while its kernel events stay pinned.

Every experiment runs on the DES kernel and the in-memory MVCC engine, so
simulator wall-clock bounds how large a cluster / how long a trace we can
afford.  The hot paths (kernel event scheduling, SQL execution, engine read
paths, the proxy's statement-side checks) were optimised under the
invariant that **virtual-time traces stay byte-identical**; this script
pins, with deterministic counters, that those fast paths still carry real
cluster traffic.  Wall-clock is never asserted here — the perf ledger
(``benchmarks/ledger/run.py``) measures it: ``sim.kernel.probe_events_per_s``,
``storage.sql.probe_executes_per_s`` and ``tpcw-shopping`` ``wall_s``.

Run as the CI perf smoke::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke
"""

from __future__ import annotations

import argparse
import gc
import sys
from collections import Counter
from contextlib import contextmanager


@contextmanager
def _statement_counters():
    """Count, from outside the program, what one write statement costs:
    ``materialised[txn_id]`` is the number of ``WriteSet`` objects
    ``Transaction.writeset`` built for that transaction, ``checks`` holds one
    ``(row probes, pending refreshes)`` pair per statement-side
    early-certification call.  Wraps four methods and restores them."""
    from repro.middleware.proxy import ReplicaProxy
    from repro.storage.database import Database
    from repro.storage.transaction import Transaction
    from repro.storage.writeset import WriteSet

    patched = (
        (Transaction, "writeset"),
        (WriteSet, "__contains__"),
        (Database, "latest_write_version"),
        (ReplicaProxy, "early_certification_conflict"),
    )
    originals = build, contains, latest, check = [
        vars(owner)[name] for owner, name in patched
    ]
    materialised: Counter = Counter()
    checks: list = []
    probes = 0

    def writeset(txn):
        materialised[txn.txn_id] += txn._writeset_cache is None
        return build.fget(txn)

    def counted_contains(ws, slot):
        nonlocal probes
        probes += 1
        return contains(ws, slot)

    def counted_latest(database, table, key):
        nonlocal probes
        probes += 1
        return latest(database, table, key)

    def counted_check(proxy, *statement):
        before = probes
        reason = check(proxy, *statement)
        checks.append((probes - before, proxy.pending_refresh_count))
        return reason

    wrappers = (property(writeset), counted_contains, counted_latest, counted_check)
    try:
        for (owner, name), wrapper in zip(patched, wrappers):
            setattr(owner, name, wrapper)
        yield materialised, checks
    finally:
        for (owner, name), original in zip(patched, originals):
            setattr(owner, name, original)


def _live(cls) -> int:
    """Number of live, GC-tracked instances of exactly ``cls``."""
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


@contextmanager
def _call_count(owner, name):
    """Count calls of the method ``owner.name`` while the block runs; yields
    a one-element list holding the count."""
    original = vars(owner)[name]
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    setattr(owner, name, counted)
    try:
        yield calls
    finally:
        setattr(owner, name, original)


@contextmanager
def _python_calls():
    """Count Python-level calls (function entries and generator resumes)
    while the block runs; yields a one-element list holding the count."""
    calls = [0]

    def hook(_frame, event, _arg):
        if event == "call":
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield calls
    finally:
        sys.setprofile(previous)


def smoke() -> None:
    """CI perf smoke: deterministic counter assertions, no wall-clock."""
    from repro.core import ClusterConfig, ReplicatedDatabase
    from repro.metrics import MetricsCollector, StageTimings, TxnSample
    from repro.middleware import CertifyRequest, LoadBalancer
    from repro.metrics.profiler import PROFILER, Profiler
    from repro.metrics.profiler import _NULL_SECTION
    from repro.sim import Process, RngRegistry
    from repro.storage import Database
    from repro.storage.rows import RowVersion
    from repro.storage.sql import plan_cache
    from repro.storage.writeset import OpKind, WriteOp
    from repro.workloads import MicroBenchmark

    # 1. Profiler is zero-overhead while off: shared no-op section object,
    #    nothing recorded by instrumented code.
    assert PROFILER.enabled is False
    probe_profiler = Profiler()
    assert probe_profiler.section("a") is probe_profiler.section("b") is _NULL_SECTION
    with probe_profiler.section("a"):
        probe_profiler.count("n")
    assert probe_profiler.sections == {} and probe_profiler.counters == {}

    # 2. The kernel fast path carries real cluster traffic, and two
    #    identical runs produce identical decisions/fingerprints.
    #    Update transactions write two rows, so a per-statement cost that
    #    grows with the rows already buffered shows in the counters of 5.
    def run_once(tap=None):
        cluster = ReplicatedDatabase(
            MicroBenchmark(update_types=10, rows_per_table=100, tables_per_txn=2),
            ClusterConfig(num_replicas=3, level="sc-coarse", seed=5),
        )
        if tap is not None:
            cluster.network.add_tap(tap)
        collector = MetricsCollector(measure_start=0.0)
        cluster.add_clients(4, collector)
        cluster.run(1_000.0)
        summary = collector.summary()
        fingerprint = {
            "committed": summary.committed,
            "aborted": summary.aborted,
            "certified": cluster.certifier.certified_count,
            "commit_version": cluster.commit_version,
        }
        return cluster, fingerprint

    certify_requests = []
    with _statement_counters() as (materialised, checks):
        cluster, first = run_once(
            lambda sender, recipient, message: certify_requests.append(message)
            if isinstance(message, CertifyRequest) else None
        )
    assert cluster.env.immediate_scheduled > 0, "zero-delay fast path not exercised"
    assert cluster.env.events_processed > 0
    assert len(cluster.env._wakeup_pool) > 0, "wakeup pooling not exercised"
    assert len(cluster.network._delivery_pool) > 0, "delivery pooling not exercised"
    assert first["committed"] > 0
    _, second = run_once()
    assert first == second, f"non-deterministic run: {first} != {second}"

    # 3. The metrics registry surfaces the counters; the indexed micro
    #    workload never degrades to scan fallbacks.
    metrics = cluster.metrics
    assert metrics.get("kernel.immediate_scheduled") > 0
    assert metrics.get("storage.scan_fallbacks") == 0
    assert metrics.get("storage.plan_cache.capacity") >= 1

    # 4. Compiled plans are cached: repeated text is a hit, not a reparse.
    cache = plan_cache()
    text = "SELECT * FROM smoke_probe WHERE id = :id"
    cache.get(text)
    hits = cache.hits
    cache.get(text)
    assert cache.hits == hits + 1

    # 5. A write statement costs O(1) early-certification work, whatever
    #    the transaction already buffered: one WriteSet per transaction that
    #    reaches certification (the one in its CertifyRequest; the
    #    arrival-side checks after the body reuse it), and per statement one
    #    row probe per pending refresh plus one for the committed head.
    assert certify_requests and any(len(r.writeset) > 1 for r in certify_requests)
    rebuilt = [(r.txn_id, materialised[r.txn_id]) for r in certify_requests
               if materialised[r.txn_id] != 1]
    assert not rebuilt, f"(txn, WriteSets materialised) != 1: {rebuilt[:5]}"
    assert any(pending for _, pending in checks), "no statement faced a pending refresh"
    excess = [(probes, pending) for probes, pending in checks if probes > pending + 1]
    assert not excess, f"early-certification probes > pending + 1: {excess[:5]}"

    # 6. Messages are delivered to handlers, not polled for: a read-only
    #    transaction is 4 messages and 7 kernel events (12 when LB and proxy
    #    each woke a dispatch-loop process per message), and no middleware
    #    component runs a dispatch loop.
    readonly_workload = MicroBenchmark(update_types=0, rows_per_table=100)
    readonly = ReplicatedDatabase(
        readonly_workload,
        ClusterConfig(num_replicas=3, level="sc-coarse", seed=5),
    )
    readonly_collector = MetricsCollector(measure_start=0.0)
    readonly_clients = 4
    stage_timings_before = _live(StageTimings)
    readonly.add_clients(readonly_clients, readonly_collector)
    with _call_count(LoadBalancer, "_rebuild_routable") as rebuilds:
        readonly.run(1_000.0)
    events_per_txn = (
        readonly.env.events_processed / readonly_collector.summary().committed
    )
    assert readonly.certifier.certified_count == 0
    assert events_per_txn <= 7.5, f"{events_per_txn:.2f} kernel events per read-only txn"
    components = ["lb", "certifier", *readonly.replica_names]
    pollers = {f"{name}-{kind}" for name in components for kind in ("loop", "dispatch")}
    live = {
        obj.name for obj in gc.get_objects()
        if isinstance(obj, Process) and obj.env is readonly.env and obj.is_alive
    }
    assert f"{readonly.replica_names[0]}-applier" in live  # the scan sees processes
    assert not live & pollers, f"dispatch-loop processes alive: {sorted(live & pollers)}"

    # 7. Per-request work pays nothing for what the run does not use: a
    #    fault-free default run never rebuilds the balancer's routable set
    #    (only a membership transition does), constructs neither the
    #    admission nor the deadline component (not configured, not built),
    #    the metrics collector keeps no object per transaction (no
    #    TxnSample is alive, and the only live StageTimings are those of
    #    transactions in flight, at most one per client), and the call
    #    record built per transaction is slotted, with no instance __dict__.
    balancer = readonly.load_balancer
    dispatched = balancer.dispatched_count
    assert dispatched > 0 and rebuilds[0] == 0, (
        f"routable set rebuilt {rebuilds[0]} times over {dispatched} dispatches"
    )
    built = {name: getattr(balancer, name) for name in ("admission", "deadlines")}
    assert built == {"admission": None, "deadlines": None}, f"unconfigured components: {built}"
    samples = _live(TxnSample)
    in_flight = _live(StageTimings) - stage_timings_before
    assert samples == 0, f"{samples} TxnSample objects alive after the run"
    assert in_flight <= readonly_clients, (
        f"{in_flight} StageTimings alive for {readonly_clients} clients"
    )
    call = readonly_workload.next_call("client-0", RngRegistry(5).stream("probe"))
    assert not hasattr(call, "__dict__"), f"{type(call).__name__} has a __dict__"

    # 8. The initial data set loads as data, not as commits: populating a
    #    database without digests constructs no WriteOp and exactly one
    #    RowVersion per loaded row.
    load_workload = MicroBenchmark(rows_per_table=2_000)
    loaded = Database(maintain_digests=False)
    for schema in load_workload.schemas():
        loaded.create_table(schema)
    with _call_count(WriteOp, "__post_init__") as ops, \
            _call_count(RowVersion, "__init__") as images:
        load_workload.populate(loaded, RngRegistry(5).stream("populate"))
    loaded_rows = sum(len(loaded.table(name)) for name in loaded.table_names)
    assert loaded_rows == 2_000 * len(load_workload.tables)
    assert ops[0] == 0, f"{ops[0]} WriteOps built loading {loaded_rows:,} rows"
    assert images[0] == loaded_rows, (
        f"{images[0]} RowVersions built for {loaded_rows:,} loaded rows"
    )

    # 9. A replica pays only for state it has made its own: after a
    #    read-only run every table's key -> head map is one object
    #    cluster-wide and no proxy keeps a request id (the network cannot
    #    duplicate); one update makes the written table's maps private on
    #    every replica and leaves every other table shared.  A committed op
    #    lives in the decision log for the whole run: it has no __dict__.
    def map_objects(cluster, table):
        return len({
            id(proxy.engine.database.table(table)._chains)
            for proxy in cluster.replicas.values()
        })

    shared_workload = MicroBenchmark(update_types=0, rows_per_table=100)
    shared = ReplicatedDatabase(shared_workload, ClusterConfig(num_replicas=8, seed=5))
    shared.add_clients(4)
    shared.run(300.0)
    assert shared.certifier.certified_count == 0 and shared.load_balancer.dispatched_count > 0
    copies = {table: map_objects(shared, table) for table in shared_workload.tables}
    assert set(copies.values()) == {1}, f"key -> head maps per table: {copies}"
    kept = [name for name, proxy in shared.replicas.items() if proxy._routed_seen is not None]
    assert not kept, f"proxies keeping request ids: {kept}"
    written = ReplicatedDatabase(
        MicroBenchmark(update_types=20, rows_per_table=100), ClusterConfig(num_replicas=8, seed=5)
    )
    written.open_session("w").execute("micro-update-0", {"key": 3})
    written.quiesce()
    assert all(proxy.v_local == 1 for proxy in written.replicas.values())
    copies = {table: map_objects(written, table) for table in written.workload.tables}
    assert copies == {"t0": 8, "t1": 1, "t2": 1, "t3": 1}, f"maps after one update: {copies}"
    op = WriteOp("t0", 3, OpKind.UPDATE, {"id": 3})
    assert not hasattr(op, "__dict__"), "WriteOp has a __dict__"

    # 10. A refresh costs each replica one pass: on a fixed 8-replica
    #     all-update run every commit version is installed 8 times (7 of
    #     them as refreshes), and the Python-level calls per commit version
    #     (function entries and generator resumes, counted by a profile
    #     hook) stay at or under the gate.  Kernel events per commit
    #     version are pinned exactly, so a lower call count can only come
    #     from fewer frames per event, never from a different model.
    refresh = ReplicatedDatabase(
        MicroBenchmark(update_types=40, rows_per_table=2_000),
        ClusterConfig(num_replicas=8, level="sc-coarse", seed=3),
    )
    refresh.add_clients(8)
    refresh.run(200.0)
    versions_before = refresh.commit_version
    events_before = refresh.env.events_processed
    with _python_calls() as python_calls:
        refresh.run(1_400.0)
    versions = refresh.commit_version - versions_before
    events = refresh.env.events_processed - events_before
    calls_per_version = python_calls[0] / versions
    assert (versions, events) == (1_547, 59_884), (
        f"model moved: {events:,} kernel events over {versions:,} commit versions "
        "(expected 59,884 over 1,547: 38.71 per version)"
    )
    assert calls_per_version <= 560, (
        f"{calls_per_version:.1f} Python-level calls per commit version (gate 560)"
    )

    print("perf smoke OK:")
    print(f"  events / r-o txn    : {events_per_txn:.2f}")
    print(f"  routable rebuilds   : {rebuilds[0]} over {dispatched:,} dispatches")
    print("  balancer components: none constructed (admission, deadlines)")
    print(f"  live after r-o run  : {samples} TxnSample, {in_flight} StageTimings "
          f"({readonly_collector.summary().committed:,} txns recorded)")
    print(f"  initial load        : {loaded_rows:,} rows, {images[0]:,} RowVersions, "
          f"{ops[0]} WriteOps")
    print(f"  maps after 1 update : {copies} (8 replicas; 1 = shared)")
    print(f"  immediate_scheduled : {cluster.env.immediate_scheduled:,}")
    print(f"  events_processed    : {cluster.env.events_processed:,}")
    print(f"  wakeup pool         : {len(cluster.env._wakeup_pool)}")
    print(f"  delivery pool       : {len(cluster.network._delivery_pool)}")
    print(f"  fingerprint         : {first}")
    print(f"  certified txns      : {len(certify_requests)} (1 WriteSet each)")
    print(f"  early-cert checks   : {len(checks):,} "
          f"(max {max(probes for probes, _ in checks)} row probes)")
    print(f"  refresh fan-out     : {calls_per_version:.1f} Python calls, "
          f"{events / versions:.2f} kernel events per commit version "
          f"({versions:,} versions, 8 replicas)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="deterministic counter assertions only (CI perf smoke)",
    )
    parser.parse_args()
    smoke()


if __name__ == "__main__":
    main()
