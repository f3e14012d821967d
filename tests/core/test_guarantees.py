"""End-to-end guarantee matrix: which configuration provides which property.

These tests run real workloads through the full middleware stack and check
the recorded run histories with the consistency checkers — the repository's
strongest evidence that the lazy techniques actually deliver strong
consistency (Theorems 1 and 2 of the paper) and that the guarantees differ
exactly as the paper describes.
"""

import pytest

from repro.histories import (
    is_session_consistent,
    is_strongly_consistent,
    staleness_report,
)

from ..conftest import make_cluster, run_loaded

LOADED = {}


def loaded(level):
    """Cached loaded run per level (these runs take a second or two)."""
    if level not in LOADED:
        LOADED[level] = run_loaded(level)
    return LOADED[level]


class TestStrongConsistency:
    @pytest.mark.parametrize(
        "level",
        ["eager", "sc-coarse", "sc-fine"],
    )
    def test_strong_levels_are_strongly_consistent(self, level):
        cluster, _ = loaded(level)
        assert is_strongly_consistent(cluster.history)

    @pytest.mark.parametrize(
        "level", ["eager", "sc-coarse"]
    )
    def test_coarse_and_eager_satisfy_the_strict_variant(self, level):
        cluster, _ = loaded(level)
        assert is_strongly_consistent(cluster.history, observational=False)

    def test_fine_grained_is_observational_only(self):
        """SC-FINE deliberately allows stale *unaccessed* tables: it passes
        the observational check but generally not the strict one."""
        cluster, _ = loaded("sc-fine")
        assert is_strongly_consistent(cluster.history)
        assert not is_strongly_consistent(cluster.history, observational=False)

    @pytest.mark.parametrize(
        "level", ["session", "baseline"]
    )
    def test_weak_levels_violate_strong_consistency(self, level):
        cluster, _ = loaded(level)
        assert not is_strongly_consistent(cluster.history)

    def test_strong_levels_have_zero_staleness(self):
        for level in ("sc-coarse", "eager"):
            cluster, _ = loaded(level)
            report = staleness_report(cluster.history)
            assert report["max"] == 0.0

    def test_baseline_exhibits_staleness(self):
        cluster, _ = loaded("baseline")
        report = staleness_report(cluster.history)
        assert report["max"] > 0


class TestSessionConsistency:
    def test_session_level_is_session_consistent(self):
        cluster, _ = loaded("session")
        assert is_session_consistent(cluster.history)

    def test_strong_levels_are_also_session_consistent(self):
        for level in ("eager", "sc-coarse"):
            cluster, _ = loaded(level)
            assert is_session_consistent(cluster.history)

    def test_only_session_level_guarantees_snapshot_monotonicity(self):
        """SESSION pins each client to monotonically non-decreasing
        snapshots by construction.  The strong levels do not guarantee raw
        snapshot monotonicity: a replica running *ahead* of the required
        version may serve a fresher snapshot than the next replica is
        obliged to reach — invisible w.r.t. acknowledged commits, but
        measurable."""
        from repro.histories import session_monotonicity_violations

        cluster, _ = loaded("session")
        assert session_monotonicity_violations(cluster.history) == []
        dips = [
            len(session_monotonicity_violations(loaded(level)[0].history))
            for level in ("eager", "sc-coarse")
        ]
        assert any(count > 0 for count in dips)

    def test_fine_grained_is_observationally_session_consistent(self):
        cluster, _ = loaded("sc-fine")
        assert is_session_consistent(cluster.history, observational=True)

    def test_baseline_violates_session_consistency(self):
        cluster, _ = loaded("baseline")
        assert not is_session_consistent(cluster.history)


class TestHiddenChannel:
    """The paper's motivating example (Section I): Agent A commits a
    transaction, tells Agent B out of band, and Agent B must observe it."""

    def scenario(self, level):
        cluster = make_cluster(level=level, num_replicas=4, rows=50)
        agent_a = cluster.open_session("agent-a")
        agent_b = cluster.open_session("agent-b")
        # Warm both sessions so snapshots exist on several replicas.
        agent_b.execute("micro-read-20", {"key": 1})
        response = agent_a.execute("micro-update-0", {"key": 1})
        new_value = response.result
        # Hidden channel: A tells B *outside the database* that it is done.
        observed = agent_b.result("micro-read-20", {"key": 1})
        return new_value, observed["payload"]

    @pytest.mark.parametrize(
        "level",
        ["eager", "sc-coarse", "sc-fine"],
    )
    def test_strong_levels_see_the_update_immediately(self, level):
        new_value, observed = self.scenario(level)
        assert observed == new_value

    def test_every_strong_level_agrees_on_the_value(self):
        values = {
            self.scenario(level)
            for level in ("eager", "sc-coarse", "sc-fine")
        }
        assert all(new == seen for new, seen in values)


class TestConvergence:
    @pytest.mark.parametrize(
        "level",
        ["eager", "sc-coarse", "sc-fine", "session", "baseline"],
    )
    def test_replicas_converge_to_identical_state(self, level):
        """After quiescing, every replica holds the same data at the same
        version — single-copy equivalence of the replicated system."""
        cluster = make_cluster(level=level, num_replicas=3, rows=30)
        session = cluster.open_session("writer")
        for key in range(1, 15):
            session.execute("micro-update-1", {"key": key % 30 + 1})
        cluster.quiesce()
        reference = cluster.replica(0).engine.database
        target = cluster.commit_version
        assert reference.version == target
        for index in (1, 2):
            other = cluster.replica(index).engine.database
            assert other.version == target
            for table in reference.table_names:
                for row in reference.table(table).scan(target):
                    assert other.table(table).read(row["id"], target) == row
