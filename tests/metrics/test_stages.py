"""Tests for stage timings."""

from repro.metrics import STAGE_NAMES, StageTimings


class TestStageTimings:
    def test_defaults_zero(self):
        stages = StageTimings()
        assert stages.total == 0.0
        assert stages.synchronization_delay == 0.0

    def test_total_sums_all_stages(self):
        stages = StageTimings(
            version=1.0, queries=2.0, certify=3.0, sync=4.0, commit=5.0,
            global_=6.0,
        )
        assert stages.total == 21.0

    def test_synchronization_delay_definition(self):
        """Figure 6's metric: start delay for lazy, global delay for eager."""
        lazy = StageTimings(version=7.0, sync=100.0)
        eager = StageTimings(global_=30.0)
        assert lazy.synchronization_delay == 7.0
        assert eager.synchronization_delay == 30.0

    def test_as_dict_uses_paper_stage_names(self):
        d = StageTimings(global_=2.0).as_dict()
        assert set(d) == set(STAGE_NAMES)
        assert d["global"] == 2.0

    def test_add_accumulates(self):
        a = StageTimings(version=1.0, queries=2.0)
        b = StageTimings(version=3.0, commit=4.0)
        a.add(b)
        assert a.version == 4.0
        assert a.queries == 2.0
        assert a.commit == 4.0

    def test_scaled_multiplies_everything(self):
        stages = StageTimings(version=2.0, queries=4.0)
        half = stages.scaled(0.5)
        assert half.version == 1.0
        assert half.queries == 2.0
        assert stages.version == 2.0  # original untouched

    def test_stage_name_order_matches_figure4(self):
        assert STAGE_NAMES == ("version", "queries", "certify", "sync", "commit", "global")
