"""Tests for deterministic random streams."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.sim import Rng, RngRegistry


class TestRegistry:
    def test_same_name_returns_same_stream(self):
        reg = RngRegistry(1)
        assert reg.stream("a") is reg.stream("a")

    def test_streams_are_deterministic_across_registries(self):
        a = RngRegistry(1).stream("s")
        b = RngRegistry(1).stream("s")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_give_independent_streams(self):
        reg = RngRegistry(1)
        a = [reg.stream("a").random() for _ in range(5)]
        b = [reg.stream("b").random() for _ in range(5)]
        assert a != b

    def test_different_seeds_give_different_streams(self):
        a = RngRegistry(1).stream("s")
        b = RngRegistry(2).stream("s")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_creation_order_does_not_matter(self):
        reg1 = RngRegistry(7)
        reg1.stream("x")
        first = reg1.stream("y").random()
        reg2 = RngRegistry(7)
        second = reg2.stream("y").random()
        assert first == second

    def test_contains(self):
        reg = RngRegistry(1)
        assert "a" not in reg
        reg.stream("a")
        assert "a" in reg


class TestDistributions:
    def test_uniform_bounds(self, rng):
        for _ in range(100):
            value = rng.uniform(2.0, 3.0)
            assert 2.0 <= value < 3.0

    def test_randint_inclusive(self, rng):
        values = {rng.randint(1, 3) for _ in range(200)}
        assert values == {1, 2, 3}

    def test_exponential_mean(self):
        rng = RngRegistry(42).stream("exp")
        samples = [rng.exponential(10.0) for _ in range(20_000)]
        assert all(s >= 0 for s in samples)
        assert abs(sum(samples) / len(samples) - 10.0) < 0.5

    def test_exponential_rejects_nonpositive_mean(self, rng):
        with pytest.raises(ValueError):
            rng.exponential(0.0)

    def test_lognormal_service_mean_and_positivity(self):
        rng = RngRegistry(42).stream("logn")
        samples = [rng.lognormal_service(5.0, cv=0.3) for _ in range(20_000)]
        assert all(s > 0 for s in samples)
        mean = sum(samples) / len(samples)
        assert abs(mean - 5.0) < 0.2

    def test_lognormal_cv_controls_spread(self):
        tight = RngRegistry(1).stream("t")
        wide = RngRegistry(1).stream("w")
        tight_samples = [tight.lognormal_service(5.0, cv=0.05) for _ in range(5_000)]
        wide_samples = [wide.lognormal_service(5.0, cv=1.0) for _ in range(5_000)]

        def stdev(xs):
            mean = sum(xs) / len(xs)
            return math.sqrt(sum((x - mean) ** 2 for x in xs) / len(xs))

        assert stdev(tight_samples) < stdev(wide_samples)

    def test_lognormal_rejects_nonpositive_mean(self, rng):
        with pytest.raises(ValueError):
            rng.lognormal_service(-1.0)

    def test_lognormal_service_is_stdlib_lognormvariate_draw_for_draw(self):
        """``lognormal_service`` writes ``random.Random.lognormvariate`` out
        inline.  Every virtual-time golden depends on the two consuming the
        same uniforms and returning the same floats, so an interpreter whose
        ``normalvariate`` changes must fail here, not shift the goldens.
        Other draws are interleaved on both streams: equal values after them
        show equal generator state, not just equal variates."""
        ours = Rng(20260926, "service")
        stdlib = random.Random(20260926)
        shapes = [(0.05, 0.3), (2.0, 0.25), (17.3, 1.0), (400.0, 0.05), (1.0, 3.0)]
        for i in range(12_000):
            mean, cv = shapes[i % len(shapes)]
            sigma2 = math.log(1.0 + cv * cv)
            mu = math.log(mean) - sigma2 / 2.0
            assert ours.lognormal_service(mean, cv) == stdlib.lognormvariate(
                mu, math.sqrt(sigma2)
            ), f"draw {i} ({mean=}, {cv=})"
            if i % 3 == 0:
                assert ours.uniform(1.0, 2.0) == stdlib.uniform(1.0, 2.0)
            elif i % 3 == 1:
                assert ours.random() == stdlib.random()
            else:
                assert ours.exponential(5.0) == stdlib.expovariate(1.0 / 5.0)
        assert ours._random.getstate() == stdlib.getstate()

    def test_randint_is_stdlib_randint_draw_for_draw(self):
        """``randint`` writes ``random.Random.randint`` out inline; every
        populate and workload choice depends on the two drawing the same
        integers from the same generator state.  Widths 1 (a draw that is 0),
        1 001 and 10 000 (the workloads' ranges), one above 2**32 (more than
        one 32-bit word per draw), and negative lows."""
        ours = Rng(20261017, "randint")
        stdlib = random.Random(20261017)
        bounds = [
            (7, 7), (0, 1_000), (1, 10_000), (-5, 2**33), (-10_000, -1),
            (-(2**40), -(2**40) + 1_000), (1, 1), (-3, 3),
        ]
        for i in range(12_000):
            low, high = bounds[i % len(bounds)]
            draw = ours.randint(low, high)
            assert draw == stdlib.randint(low, high), f"draw {i} ({low=}, {high=})"
            assert type(draw) is int and low <= draw <= high
            if i % 5 == 0:
                assert ours.random() == stdlib.random()
        assert ours._random.getstate() == stdlib.getstate()

    @pytest.mark.parametrize("low, high", [(1, 0), (5, 3), (-1, -2)])
    def test_randint_rejects_an_empty_range(self, rng, low, high):
        state = rng._random.getstate()
        with pytest.raises(ValueError, match="empty range"):
            rng.randint(low, high)
        assert rng._random.getstate() == state

    @pytest.mark.parametrize(
        "low, high", [(1.5, 3), (1, 3.5), (1.0, 3.0), (0, 2.0), ("1", 3), (1, None)]
    )
    def test_randint_rejects_non_integer_bounds(self, rng, low, high):
        state = rng._random.getstate()
        with pytest.raises(TypeError):
            rng.randint(low, high)
        assert rng._random.getstate() == state

    def test_choice_and_weighted_choice(self, rng):
        seq = ["a", "b", "c"]
        assert rng.choice(seq) in seq
        always_b = rng.weighted_choice(seq, [0.0, 1.0, 0.0])
        assert always_b == "b"

    def test_weighted_choice_respects_weights_statistically(self):
        rng = RngRegistry(3).stream("w")
        picks = [rng.weighted_choice(["x", "y"], [0.9, 0.1]) for _ in range(2_000)]
        x_fraction = picks.count("x") / len(picks)
        assert 0.85 < x_fraction < 0.95

    def test_sample_distinct(self, rng):
        picked = rng.sample(list(range(100)), 10)
        assert len(picked) == len(set(picked)) == 10

    @given(st.integers(min_value=0, max_value=2**32), st.text(min_size=1, max_size=20))
    def test_any_seed_and_name_yield_working_stream(self, seed, name):
        stream = RngRegistry(seed).stream(name)
        value = stream.random()
        assert 0.0 <= value < 1.0
