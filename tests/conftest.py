"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import signal
import threading

import pytest
from hypothesis import settings as hypothesis_settings

from repro import ClusterConfig, ReplicatedDatabase
from repro.metrics import MetricsCollector
from repro.sim import Environment, RngRegistry
from repro.storage import Column, StorageEngine, TableSchema
from repro.workloads import MicroBenchmark

#: Per-test wall-clock budget (seconds).  A discrete-event simulation that
#: deadlocks spins in the event loop forever; the alarm turns a hung CI
#: workflow into a fast, attributable failure.
TEST_TIMEOUT_S = int(os.environ.get("REPRO_TEST_TIMEOUT_S", "300"))

# One pinned hypothesis profile for the whole suite: the per-example
# deadline is disabled because whole-cluster examples legitimately take
# hundreds of milliseconds (discrete-event runs), and a deadline flake
# would fail CI on machine noise rather than on a real regression.  The
# SIGALRM guard above still bounds every test's total wall clock.
hypothesis_settings.register_profile("repro", deadline=None)
hypothesis_settings.load_profile("repro")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    # SIGALRM only exists on POSIX and only works on the main thread;
    # anywhere else the guard degrades to a no-op rather than breaking.
    usable = (
        TEST_TIMEOUT_S > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"{item.nodeid} exceeded the {TEST_TIMEOUT_S}s global test timeout"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def env():
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def rng():
    """A deterministic random stream."""
    return RngRegistry(1234).stream("test")


@pytest.fixture
def engine():
    """A standalone storage engine with one simple table ``t`` (id, v)."""
    eng = StorageEngine()
    eng.create_table(
        TableSchema("t", [Column("id", int), Column("v", int)], "id")
    )
    return eng


@pytest.fixture
def two_table_engine():
    """A storage engine with tables ``a`` and ``b``."""
    eng = StorageEngine()
    for name in ("a", "b"):
        eng.create_table(
            TableSchema(name, [Column("id", int), Column("v", int)], "id")
        )
    return eng


def make_cluster(
    level="sc-coarse",
    num_replicas=3,
    seed=7,
    update_types=20,
    rows=100,
    **kwargs,
):
    """A small micro-benchmark cluster for interactive tests."""
    workload = MicroBenchmark(update_types=update_types, rows_per_table=rows)
    return ReplicatedDatabase(
        workload,
        ClusterConfig(num_replicas=num_replicas, level=level, seed=seed, **kwargs),
    )


def run_loaded(level, clients=12, until_ms=2500.0, num_replicas=4, seed=3,
               update_types=20, rows=200):
    """Run a short loaded cluster; returns (cluster, collector)."""
    cluster = make_cluster(
        level=level, num_replicas=num_replicas, seed=seed,
        update_types=update_types, rows=rows,
    )
    collector = MetricsCollector()
    cluster.add_clients(clients, collector)
    cluster.run(until_ms)
    return cluster, collector


@pytest.fixture
def small_cluster():
    """An idle 3-replica SC-COARSE cluster over the micro-benchmark, closed
    after the test."""
    with make_cluster() as cluster:
        yield cluster
