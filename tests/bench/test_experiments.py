"""Tests for the per-figure experiment functions (tiny configurations)."""

import pytest

from repro.bench import SeriesResult, fig3, table1
from repro.bench.claims import judge
from repro.bench.experiments import _micro_config
from repro.core import resolve_policy


class TestTable1:
    def test_matches_paper_rows(self):
        rendered = table1()
        lines = rendered.splitlines()
        # The six transaction rows of Table I, exactly as published.
        expected = [
            ("T1", "1", "1", "0", "0"),
            ("T2", "2", "1", "2", "2"),
            ("T3", "3", "1", "3", "2"),
            ("T4", "4", "1", "3", "4"),
            ("T5", "5", "1", "5", "5"),
            ("T6", "6", "6", "5", "5"),
        ]
        for name, v_system, v_a, v_b, v_c in expected:
            row = next(line for line in lines if line.strip().startswith(name))
            cells = row.split()
            assert cells[-4:] == [v_system, v_a, v_b, v_c]

    def test_t6_start_requirements_in_footer(self):
        rendered = table1()
        assert "SC-FINE V_local >= 1" in rendered
        assert "SC-COARSE V_local >= 5" in rendered


class TestSeriesResult:
    def test_render_and_value(self):
        series = SeriesResult(
            title="x", x_label="n", x_values=[1, 2],
            series={"A": [10.0, 20.0]},
        )
        assert series.value("A", 2) == 20.0
        assert "A" in series.render()


class TestMicroConfig:
    def test_quick_config_is_small(self):
        cfg = _micro_config(resolve_policy("session"), 10, quick=True, seed=0)
        workload = cfg.workload_factory()
        assert workload.rows_per_table == 1_000
        assert cfg.measure_ms < 10_000

    def test_full_config_matches_paper_scale(self):
        cfg = _micro_config(resolve_policy("session"), 10, quick=False, seed=0)
        workload = cfg.workload_factory()
        assert workload.rows_per_table == 10_000
        assert cfg.cluster.num_replicas == 8


@pytest.mark.slow
class TestFig3Tiny:
    def test_fig3_shape_on_two_points(self):
        """A two-point Figure 3 judged by the claims table: equal at 0 %
        updates; at 100 % lazy tracks SESSION and EAGER falls behind."""
        result = fig3(quick=True, update_types=(0, 40))
        assert result.x_values == [0, 100]
        verdicts = judge("fig3", result)
        assert len(verdicts) == 4
        assert [v.claim.id for v in verdicts if not v.ok] == []


class TestAvailability:
    def test_reports_detection_dip_and_recovery(self):
        """The crash figure judged by the claims table: heartbeats detect
        the crash within 200 ms, and EAGER, which stalls updates on the dead
        replica until exclusion, dips deeper than SC-FINE."""
        from repro.bench import availability

        result = availability(quick=True, seed=0)
        verdicts = judge("availability", result)
        assert len(verdicts) == 3
        assert [v.claim.id for v in verdicts if not v.ok] == []
        rendered = result.render(chart=False)
        assert "detect (ms)" in rendered
        assert "SC-FINE" in rendered and "EAGER" in rendered
