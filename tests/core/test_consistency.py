"""Tests for the registered policies' classification properties."""

from repro.core.policy import available_policies, resolve_policy


class TestClassification:
    def test_strong_levels(self):
        assert resolve_policy("eager").is_strong
        assert resolve_policy("sc-coarse").is_strong
        assert resolve_policy("sc-fine").is_strong
        assert not resolve_policy("session").is_strong
        assert not resolve_policy("baseline").is_strong

    def test_lazy_levels(self):
        assert not resolve_policy("eager").is_lazy
        for spec in ("sc-coarse", "sc-fine", "session", "baseline"):
            assert resolve_policy(spec).is_lazy

    def test_start_delay_levels(self):
        assert resolve_policy("sc-coarse").uses_start_delay
        assert resolve_policy("sc-fine").uses_start_delay
        assert resolve_policy("session").uses_start_delay
        assert not resolve_policy("eager").uses_start_delay
        assert not resolve_policy("baseline").uses_start_delay

    def test_labels_are_unique(self):
        labels = {resolve_policy(name).label for name in available_policies()}
        assert len(labels) == len(available_policies())

    def test_round_trip_by_value(self):
        for name in available_policies():
            policy = resolve_policy(name)
            assert resolve_policy(policy.spec).spec == policy.spec
