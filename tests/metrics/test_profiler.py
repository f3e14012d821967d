"""The wall-clock profiler: off means free, on means accounted."""

from __future__ import annotations

import gc

import pytest

from repro.metrics.profiler import PROFILER, Profiler
from repro.metrics.profiler import _NULL_SECTION


@pytest.fixture(autouse=True)
def quiet_collector():
    """These tests compare exact profiler contents, and an enabled profiler
    records every collection: none may start on its own meanwhile, and no
    profiler a test left enabled may keep its hook afterwards."""
    hooks, automatic = list(gc.callbacks), gc.isenabled()
    gc.disable()
    yield
    gc.callbacks[:] = hooks
    if automatic:
        gc.enable()


class TestDisabledProfiler:
    def test_off_by_default(self):
        assert Profiler().enabled is False
        assert PROFILER.enabled is False

    def test_section_returns_shared_noop(self):
        profiler = Profiler()
        # Identity: no allocation, no clock read while disabled.
        assert profiler.section("a") is profiler.section("b") is _NULL_SECTION
        with profiler.section("a"):
            pass
        assert profiler.sections == {}

    def test_count_is_noop(self):
        profiler = Profiler()
        profiler.count("x", 5)
        assert profiler.counters == {}


class TestEnabledProfiler:
    def test_sections_accumulate(self):
        profiler = Profiler()
        profiler.enable()
        for _ in range(3):
            with profiler.section("work"):
                pass
        total, calls = profiler.sections["work"]
        assert calls == 3 and total >= 0.0

    def test_counters_accumulate(self):
        profiler = Profiler()
        profiler.enable()
        profiler.count("events", 2)
        profiler.count("events")
        assert profiler.counters == {"events": 3}

    def test_reset_clears_everything(self):
        profiler = Profiler()
        profiler.enable()
        with profiler.section("work"):
            profiler.count("events")
        profiler.reset()
        assert profiler.sections == {} and profiler.counters == {}

    def test_report_lists_sections_and_rate(self):
        profiler = Profiler()
        profiler.enable()
        with profiler.section("run.measure"):
            pass
        profiler.count("kernel.events", 10)
        report = profiler.report(events=1000, wall_s=2.0)
        assert "run.measure" in report
        assert "500 events/s" in report
        assert "kernel.events" in report

    def test_report_empty(self):
        assert "no sections" in Profiler().report()

    def test_report_truncates_to_top(self):
        profiler = Profiler()
        profiler.enable()
        for i in range(5):
            with profiler.section(f"s{i}"):
                pass
        report = profiler.report(top=2)
        assert "3 more sections" in report


class TestCollectorTiming:
    """``gc.collect`` / ``gc.gen*``: the cyclic collector's share of a run,
    measured only while profiling is on."""

    def test_nothing_registered_while_off(self):
        profiler = Profiler()
        assert profiler._on_gc not in gc.callbacks
        assert PROFILER._on_gc not in gc.callbacks
        gc.collect()
        assert profiler.sections == {} and profiler.counters == {}

    def test_hook_lives_exactly_as_long_as_enabled(self):
        profiler = Profiler()
        profiler.enable()
        profiler.enable()  # idempotent: one hook, not two
        assert gc.callbacks.count(profiler._on_gc) == 1
        profiler.disable()
        assert profiler._on_gc not in gc.callbacks
        profiler.disable()  # ... and so is switching off

    def test_collections_are_timed_and_counted_by_generation(self):
        profiler = Profiler()
        profiler.enable()
        try:
            gc.collect(0)
            gc.collect()
            gc.collect()
        finally:
            profiler.disable()
        total, calls = profiler.sections["gc.collect"]
        assert calls == 3 and total > 0.0
        assert profiler.counters["gc.gen0"] == 1
        assert profiler.counters["gc.gen2"] == 2
        report = profiler.report()
        assert "gc.collect" in report and "gc.gen2" in report
        gc.collect()  # after disable(): not seen
        assert profiler.sections["gc.collect"][1] == 3
