"""Tests for the experiment runner."""

import pytest

from repro.bench import ExperimentConfig, run_experiment
from repro.workloads import MicroBenchmark


def config(**overrides):
    defaults = dict(
        workload_factory=lambda: MicroBenchmark(update_types=20, rows_per_table=50),
        level="sc-coarse",
        num_replicas=2,
        clients=4,
        warmup_ms=100.0,
        measure_ms=400.0,
        seed=1,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestRunReplicated:
    def test_aggregates_multiple_seeds(self):
        from repro.bench import run_replicated

        result = run_replicated(config(), num_runs=4)
        assert len(result.runs) == 4
        seeds = {r.config.seed for r in result.runs}
        assert len(seeds) == 4
        assert result.mean_tps > 0
        assert 0.0 <= result.tps_deviation

    def test_paper_methodology_deviation_under_5_percent(self):
        """The paper reports deviations below 5 % across its 10 runs; our
        simulated runs are at least that stable on a standard config."""
        from repro.bench import run_replicated

        result = run_replicated(
            config(measure_ms=1_500.0, clients=8, num_replicas=3), num_runs=5
        )
        assert result.tps_deviation < 0.05
        assert result.response_deviation < 0.15

    def test_zero_runs_rejected(self):
        from repro.bench import run_replicated

        with pytest.raises(ValueError):
            run_replicated(config(), num_runs=0)


class TestPercentiles:
    def test_percentiles_ordered(self):
        result = run_experiment(config(measure_ms=800.0))
        summary = result.summary
        assert summary.p50_response_ms <= summary.p95_response_ms
        assert summary.p95_response_ms <= summary.p99_response_ms
        assert summary.p50_response_ms > 0


class TestRunExperiment:
    def test_produces_throughput(self):
        result = run_experiment(config())
        assert result.tps > 0
        assert result.response_ms > 0
        assert result.summary.committed > 0
        assert result.final_commit_version > 0

    def test_deterministic_given_seed(self):
        a = run_experiment(config(seed=7))
        b = run_experiment(config(seed=7))
        assert a.tps == b.tps
        assert a.summary.committed == b.summary.committed

    def test_different_seeds_differ(self):
        a = run_experiment(config(seed=1))
        b = run_experiment(config(seed=2))
        assert a.summary.committed != b.summary.committed

    def test_history_checks_when_recorded(self):
        result = run_experiment(config(record_history=True))
        assert result.strongly_consistent is True
        assert result.session_consistent is True

    def test_history_checks_skipped_by_default(self):
        result = run_experiment(config())
        assert result.strongly_consistent is None

    def test_baseline_fails_strong_check(self):
        result = run_experiment(
            config(level="baseline", record_history=True,
                   num_replicas=4, clients=8)
        )
        assert result.strongly_consistent is False

    def test_total_ms(self):
        cfg = config()
        assert cfg.total_ms == 500.0

    def test_certifier_counters_reported(self):
        result = run_experiment(config())
        assert result.certified == result.final_commit_version
        assert result.certification_aborts >= 0
        assert result.early_aborts >= 0
