"""Tests for the pluggable consistency-policy layer: the registry,
spec resolution, per-policy decisions, and the ``relaxed:k`` staleness dial."""

import pytest

from repro.core.cluster import ClusterConfig, ReplicatedDatabase
from repro.core.policy import (
    BaselinePolicy,
    ConsistencyPolicy,
    EagerPolicy,
    RelaxedPolicy,
    ScCoarsePolicy,
    available_policies,
    register_policy,
    resolve_policy,
)
from repro.core.policy import _REGISTRY
from repro.core.versions import VersionTracker
from repro.middleware.overload import OverloadSettings
from repro.workloads import MicroBenchmark


def tracker_at(v_system, tables=(), session=None):
    """A tracker advanced to ``v_system`` with optional table/session state."""
    tracker = VersionTracker()
    for version in range(1, v_system + 1):
        tracker.observe_commit(version, updated_tables=tables, session_id=session)
    return tracker


class TestResolution:
    def test_every_registered_name_resolves_to_its_policy(self):
        for name in available_policies():
            assert resolve_policy(name).name == name

    def test_string_spec_resolves(self):
        assert isinstance(resolve_policy("sc-coarse"), ScCoarsePolicy)
        assert isinstance(resolve_policy("eager"), EagerPolicy)

    def test_policy_instance_passes_through(self):
        policy = RelaxedPolicy(3)
        assert resolve_policy(policy) is policy

    def test_parameterized_spec(self):
        policy = resolve_policy("relaxed:3")
        assert isinstance(policy, RelaxedPolicy)
        assert policy.bound == 3
        assert policy.spec == "relaxed:3"

    def test_relaxed_bound_lives_in_the_spec(self):
        assert resolve_policy("relaxed:7").bound == 7
        assert resolve_policy("relaxed:0").start_version(tracker_at(4)) == 4
        assert resolve_policy("relaxed").bound == 10

    def test_bare_relaxed_means_one_bound_on_every_path(self):
        """Bare ``relaxed`` names one bound whether it reaches the policy
        through ``resolve_policy`` (``repro audit --level``), a cluster's
        ``level`` or a degradation valve."""
        workload = MicroBenchmark(rows_per_table=10)
        assert (
            resolve_policy("relaxed").spec
            == ReplicatedDatabase(workload, ClusterConfig(level="relaxed")).policy.spec
            == "relaxed:10"
        )
        valve = OverloadSettings(mpl_cap=4, valve_policy="relaxed")
        cluster = ReplicatedDatabase(workload, ClusterConfig(overload=valve))
        assert cluster.load_balancer.admission.valve_policy.spec == "relaxed:10"

    def test_unknown_name_lists_registered_policies(self):
        with pytest.raises(ValueError) as excinfo:
            resolve_policy("bogus")
        message = str(excinfo.value)
        assert "bogus" in message
        for name in available_policies():
            assert name in message

    def test_non_integer_parameter_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            resolve_policy("relaxed:soon")

    def test_negative_bound_in_the_spec_rejected(self):
        with pytest.raises(ValueError, match="staleness bound"):
            resolve_policy("relaxed:-3")

    def test_unresolvable_type_rejected(self):
        with pytest.raises(TypeError):
            resolve_policy(42)


class TestRegistry:
    def test_available_policies_sorted_and_complete(self):
        names = available_policies()
        assert names == tuple(sorted(names))
        assert names == ("baseline", "eager", "relaxed", "sc-coarse", "sc-fine", "session")

    def test_register_custom_policy(self):
        class PinnedPolicy(ConsistencyPolicy):
            name = "pinned"
            label = "PINNED"

            def start_version(self, tracker, table_set=None, session_id=None):
                return 42

        register_policy("pinned", lambda arg: PinnedPolicy())
        try:
            assert "pinned" in available_policies()
            policy = resolve_policy("pinned")
            assert policy.start_version(VersionTracker()) == 42
        finally:
            _REGISTRY.pop("pinned")


class TestStartVersions:
    def test_sc_coarse_requires_full_v_system(self):
        tracker = tracker_at(5)
        assert ScCoarsePolicy().start_version(tracker) == 5

    def test_sc_fine_uses_table_set_and_degrades_safely(self):
        tracker = VersionTracker()
        tracker.observe_commit(1, updated_tables={"a"})
        tracker.observe_commit(2, updated_tables={"b"})
        policy = resolve_policy("sc-fine")
        assert policy.start_version(tracker, table_set={"a"}) == 1
        assert policy.start_version(tracker, table_set={"a", "b"}) == 2
        assert policy.start_version(tracker, table_set=set()) == 0
        assert policy.start_version(tracker, table_set=None) == 2  # coarse fallback

    def test_session_tracks_per_session_version(self):
        tracker = VersionTracker()
        tracker.observe_commit(3, session_id="alice")
        policy = resolve_policy("session")
        assert policy.start_version(tracker, session_id="alice") == 3
        assert policy.start_version(tracker, session_id="bob") == 0
        assert policy.start_version(tracker, session_id=None) == 0

    def test_eager_and_baseline_never_delay_start(self):
        tracker = tracker_at(9)
        assert EagerPolicy().start_version(tracker) == 0
        assert BaselinePolicy().start_version(tracker) == 0

    def test_relaxed_clamps_at_zero(self):
        tracker = tracker_at(3)
        assert RelaxedPolicy(2).start_version(tracker) == 1
        assert RelaxedPolicy(10).start_version(tracker) == 0


class TestBoundedStaleness:
    """``relaxed:k`` is the one bounded-staleness dial."""

    def test_start_version_at_most_k_behind(self):
        tracker = tracker_at(10)
        assert RelaxedPolicy(3).start_version(tracker) == 7
        assert RelaxedPolicy(20).start_version(tracker) == 0

    def test_k_zero_matches_sc_coarse(self):
        tracker = tracker_at(6)
        assert (
            RelaxedPolicy(0).start_version(tracker)
            == ScCoarsePolicy().start_version(tracker)
        )

    def test_classification(self):
        assert RelaxedPolicy(0).is_strong
        assert not RelaxedPolicy(1).is_strong
        assert not RelaxedPolicy().is_strong
        assert RelaxedPolicy(2).label == "RELAXED"

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            RelaxedPolicy(-1)


class TestProtocolDecisions:
    def test_only_eager_waits_for_global_commit(self):
        for name in available_policies():
            policy = resolve_policy(name)
            expected = isinstance(policy, EagerPolicy)
            assert policy.waits_for_global_commit is expected
            assert policy.tracks_global_commit is expected

    def test_commit_ack_flush_free_for_lazy_policies(self):
        class Perf:
            def eager_commit_flush(self, size):
                return 3.5

        perf = Perf()
        assert EagerPolicy().commit_ack_flush(perf, 2) == 3.5
        for name in ("sc-coarse", "sc-fine", "session", "baseline", "relaxed"):
            assert resolve_policy(name).commit_ack_flush(perf, 2) == 0.0
