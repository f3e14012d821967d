"""A cluster ends when it is closed (DESIGN.md D29).

``ReplicatedDatabase.close()`` freezes the metrics registry, closes every
suspended generator, drops the kernel's queues and releases the bulk (the
replicas' tables, the decision log), so a sweep of figure cells holds one
cluster at a time and frees each one without waiting for the cyclic
collector.
"""

import gc
import sys
import tracemalloc
import weakref

import pytest

from repro import ClusterConfig
from repro.bench.runner import ExperimentConfig, run_experiment
from repro.metrics import MetricsCollector, latest_registry
from repro.sim.kernel import Process
from repro.workloads import MicroBenchmark

from ..conftest import make_cluster

#: traced bytes three identical cells may add over the first one: what the
#: cyclic collector has not yet freed of two closed clusters (about 110 KiB
#: each) fits; one unclosed cluster's tables (about 2 MiB here) do not
MAX_GROWTH_BYTES = 256 * 1024


def loaded_cluster(**overrides):
    cluster = make_cluster(num_replicas=3, record_history=False, **overrides)
    cluster.add_clients(8, MetricsCollector())
    cluster.run(600.0)
    return cluster


def test_close_releases_tables_and_log_without_the_collector():
    cluster = loaded_cluster(standby_certifier=True)
    database = cluster.replica(0).engine.database
    table = weakref.ref(database.table(database.table_names[0]))
    writeset = cluster.certifier.log.entry(1).writeset
    commit_version = cluster.commit_version
    del database
    automatic = gc.isenabled()
    gc.disable()
    try:
        cluster.close()
        assert table() is None
        # A WriteSet takes no weak reference: this test's name and the
        # call's argument must be the only references left.
        assert sys.getrefcount(writeset) == 2
    finally:
        if automatic:
            gc.enable()
    assert len(cluster.certifier.log) == 0
    assert cluster.commit_version == commit_version


def test_no_process_of_a_closed_cluster_survives_one_collection():
    cluster = loaded_cluster(heartbeat=ClusterConfig.self_healing().heartbeat)
    env = cluster.env
    assert env._processes
    cluster.close()
    assert not env._processes and not env._queue and not env._immediate
    del cluster
    gc.collect()
    assert not [obj for obj in gc.get_objects()
                if isinstance(obj, Process) and obj.env is env]


def test_registry_is_frozen_at_close_and_close_is_idempotent():
    cluster = loaded_cluster()
    before = latest_registry().collect()
    cluster.close()
    assert latest_registry() is cluster.metrics
    assert latest_registry().collect() == before
    cluster.close()
    assert cluster.metrics.collect() == before
    assert cluster.metrics.get("replica.replica-0.committed") > 0


def test_a_closed_cluster_refuses_to_run():
    with make_cluster() as cluster:
        cluster.run(10.0)
    with pytest.raises(RuntimeError, match="closed"):
        cluster.run(20.0)
    with pytest.raises(RuntimeError, match="closed"):
        cluster.add_clients(1)
    with pytest.raises(RuntimeError, match="closed"):
        cluster.open_session()


def test_memory_is_flat_across_identical_cells():
    config = ExperimentConfig(
        lambda: MicroBenchmark(update_types=10, rows_per_table=1_000),
        cluster=ClusterConfig(num_replicas=3, level="sc-fine", seed=1,
                              record_history=False),
        clients=6, warmup_ms=100.0, measure_ms=400.0,
    )
    run_experiment(config)  # warm the process-wide caches first
    tracemalloc.start()
    try:
        traced = []
        for _ in range(3):
            run_experiment(config)
            traced.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert traced[2] - traced[0] <= MAX_GROWTH_BYTES, traced
