"""Randomized tests of the paper's Theorems 1 and 2.

Theorem 1: the lazy coarse-grained approach guarantees strong consistency.
Theorem 2: the lazy fine-grained approach guarantees strong consistency.

These are checked over randomized cluster shapes, workload mixes and seeds:
whatever the configuration, every recorded run under SC-COARSE / SC-FINE /
EAGER must pass the Definition 1 checker.  (The simulation is deterministic
per seed, so each failing example would be perfectly reproducible.)
"""

from hypothesis import given, settings, strategies as st

from repro import ClusterConfig, ReplicatedDatabase
from repro.histories import is_session_consistent, is_strongly_consistent
from repro.metrics import MetricsCollector
from repro.workloads import MicroBenchmark

shapes = st.tuples(
    st.integers(min_value=1, max_value=6),    # replicas
    st.integers(min_value=2, max_value=12),   # clients
    st.integers(min_value=0, max_value=40),   # update types / 40
    st.integers(min_value=0, max_value=2**16),  # seed
)


def run(level, replicas, clients, update_types, seed, duration=700.0,
        tables_per_txn=1):
    cluster = ReplicatedDatabase(
        MicroBenchmark(update_types=update_types, rows_per_table=60,
                       tables_per_txn=tables_per_txn),
        ClusterConfig(num_replicas=replicas, level=level, seed=seed),
    )
    cluster.add_clients(clients, MetricsCollector())
    cluster.run(duration)
    return cluster.history


class TestTheorem1:
    @given(shapes)
    @settings(max_examples=12, deadline=None)
    def test_coarse_grained_is_strongly_consistent(self, shape):
        replicas, clients, update_types, seed = shape
        history = run("sc-coarse", replicas, clients,
                      update_types, seed)
        assert is_strongly_consistent(history)
        assert is_strongly_consistent(history, observational=False)


class TestTheorem2:
    @given(shapes, st.integers(min_value=1, max_value=4))
    @settings(max_examples=12, deadline=None)
    def test_fine_grained_is_strongly_consistent(self, shape, width):
        replicas, clients, update_types, seed = shape
        history = run("sc-fine", replicas, clients,
                      update_types, seed, tables_per_txn=width)
        assert is_strongly_consistent(history)


class TestEagerReference:
    @given(shapes)
    @settings(max_examples=8, deadline=None)
    def test_eager_is_strongly_consistent(self, shape):
        replicas, clients, update_types, seed = shape
        history = run("eager", replicas, clients,
                      update_types, seed)
        assert is_strongly_consistent(history, observational=False)


class TestSessionReference:
    @given(shapes)
    @settings(max_examples=8, deadline=None)
    def test_session_level_is_session_consistent(self, shape):
        replicas, clients, update_types, seed = shape
        history = run("session", replicas, clients,
                      update_types, seed)
        assert is_session_consistent(history)
