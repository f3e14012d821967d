"""Property-based tests on abstract histories.

Random histories are generated two ways — arbitrary interleavings, and
serial executions with correct read values — and the checkers must satisfy
the classic containments: serial ⇒ serializable ⇒ (here) consistent reads;
strong consistency of a serial history; SI ⊆ GSI.
"""

import random
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.histories import (
    AbstractHistory,
    abort,
    begin,
    commit,
    is_abstract_strongly_consistent,
    is_conflict_serializable,
    is_snapshot_isolated,
    read,
    write,
)
from repro.histories.abstract import OpKind, conflict_graph
from repro.histories.generator import interleaved_history, serial_history

ITEMS = ("X", "Y", "Z")


@st.composite
def serial_histories(draw):
    """A serial, single-copy execution: transactions run one at a time and
    every read returns the latest committed value."""
    state = {item: 0 for item in ITEMS}
    ops = []
    n_txns = draw(st.integers(min_value=1, max_value=6))
    for index in range(n_txns):
        txn = f"T{index}"
        ops.append(begin(txn))
        local = dict(state)
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            item = draw(st.sampled_from(ITEMS))
            if draw(st.booleans()):
                ops.append(read(txn, item, local[item]))
            else:
                value = draw(st.integers(min_value=1, max_value=9))
                ops.append(write(txn, item, value))
                local[item] = value
        ops.append(commit(txn))
        state = local
    return AbstractHistory(ops)


@st.composite
def interleaved_histories(draw):
    """Arbitrary (valid) interleavings with arbitrary read values."""
    n_txns = draw(st.integers(min_value=1, max_value=4))
    per_txn = {
        f"T{i}": draw(st.integers(min_value=1, max_value=3)) for i in range(n_txns)
    }
    pending = {txn: ["B"] + ["O"] * count + ["C"] for txn, count in per_txn.items()}
    ops = []
    alive = sorted(pending)
    while alive:
        txn = draw(st.sampled_from(alive))
        step = pending[txn].pop(0)
        if step == "B":
            ops.append(begin(txn))
        elif step == "C":
            ops.append(commit(txn))
        else:
            item = draw(st.sampled_from(ITEMS))
            if draw(st.booleans()):
                ops.append(read(txn, item, draw(st.integers(0, 5))))
            else:
                ops.append(write(txn, item, draw(st.integers(1, 5))))
        if not pending[txn]:
            alive.remove(txn)
    return AbstractHistory(ops)


class TestSerialHistories:
    @given(serial_histories())
    @settings(max_examples=150, deadline=None)
    def test_serial_is_conflict_serializable(self, history):
        assert is_conflict_serializable(history)

    @given(serial_histories())
    @settings(max_examples=150, deadline=None)
    def test_serial_is_strongly_consistent(self, history):
        assert is_abstract_strongly_consistent(history)

    @given(serial_histories())
    @settings(max_examples=150, deadline=None)
    def test_serial_is_snapshot_isolated(self, history):
        assert is_snapshot_isolated(history)


class TestContainments:
    @given(interleaved_histories())
    @settings(max_examples=200, deadline=None)
    def test_si_implies_gsi(self, history):
        if is_snapshot_isolated(history, generalized=False):
            assert is_snapshot_isolated(history, generalized=True)

    @given(interleaved_histories())
    @settings(max_examples=200, deadline=None)
    def test_strong_consistency_reads_are_gsi_consistent_at_begin(self, history):
        """A strongly consistent history's reads all match the committed
        state at begin, which is a legal GSI snapshot — so unless first-
        committer-wins is violated, it is GSI."""
        assume(is_abstract_strongly_consistent(history))
        committed = history.committed_transactions()
        # Check FCW separately: overlapping committed writers of one item.
        fcw_ok = True
        for i, a in enumerate(committed):
            for b in committed[i + 1:]:
                a_span = (history.index_of(OpKind.BEGIN, a),
                          history.index_of(OpKind.COMMIT, a))
                b_span = (history.index_of(OpKind.BEGIN, b),
                          history.index_of(OpKind.COMMIT, b))
                overlap = a_span[0] < b_span[1] and b_span[0] < a_span[1]
                if overlap and history.write_items(a) & history.write_items(b):
                    fcw_ok = False
        if fcw_ok:
            assert is_snapshot_isolated(history, generalized=True)

    @given(interleaved_histories())
    @settings(max_examples=100, deadline=None)
    def test_checkers_are_deterministic(self, history):
        assert is_conflict_serializable(history) == is_conflict_serializable(history)
        assert is_snapshot_isolated(history) == is_snapshot_isolated(history)


def all_pairs_edges(history):
    """Reference conflict graph: every ordered pair of committed data
    operations, O(n²) — what the checker did before it grouped by item."""
    committed = set(history.committed_transactions())
    data_ops = [
        op for op in history.ops
        if op.kind in (OpKind.READ, OpKind.WRITE) and op.txn in committed
    ]
    return {
        (a.txn, b.txn)
        for i, a in enumerate(data_ops)
        for b in data_ops[i + 1:]
        if a.txn != b.txn and a.item == b.item
        and OpKind.WRITE in (a.kind, b.kind)
    }


def edges_of(graph):
    return {(a, b) for a, successors in graph.items() for b in successors}


def kahn_is_acyclic(nodes, edges):
    """Reference cycle check: peel nodes of in-degree zero until stuck."""
    indegree = {node: 0 for node in nodes}
    successors = {node: [] for node in nodes}
    for a, b in edges:
        successors[a].append(b)
        indegree[b] += 1
    ready = [node for node, degree in indegree.items() if degree == 0]
    peeled = 0
    while ready:
        node = ready.pop()
        peeled += 1
        for successor in successors[node]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                ready.append(successor)
    return peeled == len(indegree)


def history_with_edges(nodes, edges):
    """A history whose conflict graph is exactly ``edges`` over ``nodes``:
    every transaction is open throughout, and edge number k is a write by
    its source followed by a write by its target on a private item k."""
    ops = [begin(f"T{node}") for node in nodes]
    for k, (a, b) in enumerate(edges):
        ops += [write(f"T{a}", f"e{k}", 1), write(f"T{b}", f"e{k}", 2)]
    ops += [commit(f"T{node}") for node in nodes]
    return AbstractHistory(ops)


class TestConflictGraphDifferential:
    @given(st.integers(0, 2**32), st.integers(1, 7), st.integers(1, 5), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_per_item_edges_equal_the_all_pairs_reference(
        self, seed, num_txns, max_ops, serial
    ):
        rng = random.Random(seed)
        generate = serial_history if serial else interleaved_history
        history = generate(rng, num_txns=num_txns, max_ops=max_ops)
        graph = conflict_graph(history)
        reference = all_pairs_edges(history)
        assert set(graph) == set(history.committed_transactions())
        assert edges_of(graph) == reference
        assert is_conflict_serializable(history) == kahn_is_acyclic(graph, reference)

    def test_uncommitted_operations_make_no_edges(self):
        history = AbstractHistory([
            begin("T1"), begin("T2"), begin("T3"),
            write("T1", "X", 1), write("T2", "X", 2), read("T3", "X", 1),
            commit("T1"), abort("T2"),
        ])
        assert conflict_graph(history) == {"T1": set()}

    @given(
        st.integers(1, 9).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                    .filter(lambda edge: edge[0] != edge[1]),
                    max_size=25,
                ),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_dfs_verdict_equals_kahn_peel_on_random_digraphs(self, graph):
        size, edges = graph
        history = history_with_edges(range(size), edges)
        assert edges_of(conflict_graph(history)) == {
            (f"T{a}", f"T{b}") for a, b in edges
        }
        assert is_conflict_serializable(history) == kahn_is_acyclic(range(size), edges)


class TestDeepHistories:
    """The search is iterative: a conflict chain far longer than the
    interpreter's recursion limit is checked without raising it."""

    LENGTH = 10_000

    @pytest.fixture(autouse=True)
    def default_recursion_limit(self):
        previous = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        yield
        sys.setrecursionlimit(previous)

    def chain(self):
        return [(i, i + 1) for i in range(self.LENGTH - 1)]

    def test_write_chain_is_serializable(self):
        history = history_with_edges(range(self.LENGTH), self.chain())
        assert is_conflict_serializable(history)

    def test_cycle_through_every_transaction_is_found(self):
        edges = self.chain() + [(self.LENGTH - 1, 0)]
        history = history_with_edges(range(self.LENGTH), edges)
        assert not is_conflict_serializable(history)
