"""Tests for version accounting — including the paper's Table I walkthrough."""

import pytest

from repro.core import VersionTracker, resolve_policy


class TestObserveCommit:
    def test_initial_state(self):
        tracker = VersionTracker()
        assert tracker.v_system == 0
        assert tracker.table_version("any") == 0
        assert tracker.session_version("s") == 0

    def test_update_advances_v_system_and_tables(self):
        tracker = VersionTracker()
        tracker.observe_commit(1, {"a"})
        assert tracker.v_system == 1
        assert tracker.table_version("a") == 1
        assert tracker.table_version("b") == 0

    def test_read_only_commit_advances_nothing_global(self):
        tracker = VersionTracker()
        tracker.observe_commit(None, (), session_id="s", replica_version=4)
        assert tracker.v_system == 0
        assert tracker.session_version("s") == 4

    def test_stale_acknowledgment_does_not_regress(self):
        tracker = VersionTracker()
        tracker.observe_commit(5, {"a"})
        tracker.observe_commit(3, {"a"})
        assert tracker.v_system == 5
        assert tracker.table_version("a") == 5

    def test_session_tracks_max_of_replica_and_commit_version(self):
        tracker = VersionTracker()
        tracker.observe_commit(7, {"a"}, session_id="s", replica_version=5)
        assert tracker.session_version("s") == 7
        tracker.observe_commit(None, (), session_id="s", replica_version=6)
        assert tracker.session_version("s") == 7  # no regression


class TestStartVersion:
    @pytest.fixture
    def tracker(self):
        tracker = VersionTracker()
        tracker.observe_commit(1, {"a"})
        tracker.observe_commit(2, {"b"}, session_id="alice", replica_version=2)
        return tracker

    def test_eager_and_baseline_never_wait(self, tracker):
        assert resolve_policy("eager").start_version(tracker) == 0
        assert resolve_policy("baseline").start_version(tracker) == 0

    def test_coarse_requires_v_system(self, tracker):
        assert resolve_policy("sc-coarse").start_version(tracker) == 2

    def test_fine_requires_max_table_version(self, tracker):
        assert resolve_policy("sc-fine").start_version(tracker, table_set={"a"}) == 1
        assert resolve_policy("sc-fine").start_version(tracker, table_set={"b"}) == 2
        assert resolve_policy("sc-fine").start_version(tracker, table_set={"a", "b"}) == 2

    def test_fine_on_never_updated_table_is_zero(self, tracker):
        assert resolve_policy("sc-fine").start_version(tracker, table_set={"zzz"}) == 0

    def test_fine_with_empty_table_set_is_zero(self, tracker):
        assert resolve_policy("sc-fine").start_version(tracker, table_set=set()) == 0

    def test_fine_without_table_set_degrades_to_coarse(self, tracker):
        assert resolve_policy("sc-fine").start_version(tracker, table_set=None) == 2

    def test_session_uses_session_version(self, tracker):
        assert resolve_policy("session").start_version(tracker, session_id="alice") == 2
        assert resolve_policy("session").start_version(tracker, session_id="bob") == 0
        assert resolve_policy("session").start_version(tracker, session_id=None) == 0


class TestTableI:
    """The exact walkthrough of Table I in the paper."""

    def test_version_evolution_matches_paper(self):
        tracker = VersionTracker()
        expected = [
            # (transaction tables, V_system, V_A, V_B, V_C)
            ({"A"}, 1, 1, 0, 0),       # T1
            ({"B", "C"}, 2, 1, 2, 2),  # T2
            ({"B"}, 3, 1, 3, 2),       # T3
            ({"C"}, 4, 1, 3, 4),       # T4
            ({"B", "C"}, 5, 1, 5, 5),  # T5
            ({"A"}, 6, 6, 5, 5),       # T6
        ]
        for tables, v_system, v_a, v_b, v_c in expected:
            tracker.observe_commit(tracker.v_system + 1, tables)
            assert tracker.v_system == v_system
            assert tracker.table_version("A") == v_a
            assert tracker.table_version("B") == v_b
            assert tracker.table_version("C") == v_c

    def test_t6_start_requirement(self):
        """After T5: a transaction on table A only needs V_local >= 1 under
        SC-FINE but V_local >= 5 under SC-COARSE — the paper's key example."""
        tracker = VersionTracker()
        for tables in [{"A"}, {"B", "C"}, {"B"}, {"C"}, {"B", "C"}]:
            tracker.observe_commit(tracker.v_system + 1, tables)
        assert resolve_policy("sc-fine").start_version(tracker, table_set={"A"}) == 1
        assert resolve_policy("sc-coarse").start_version(tracker) == 5
