"""Tests for the experiment runner."""

import dataclasses

from repro import ClusterConfig
from repro.bench import ExperimentConfig, run_experiment
from repro.histories import is_session_consistent, is_strongly_consistent
from repro.workloads import MicroBenchmark


def config(clients=4, measure_ms=400.0, **cluster):
    settings = dict(level="sc-coarse", num_replicas=2, seed=1, record_history=False)
    settings.update(cluster)
    return ExperimentConfig(
        workload_factory=lambda: MicroBenchmark(update_types=20, rows_per_table=50),
        cluster=ClusterConfig(**settings),
        clients=clients,
        warmup_ms=100.0,
        measure_ms=measure_ms,
    )


class TestConfigShape:
    def test_fields(self):
        assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
            "workload_factory", "cluster", "clients", "warmup_ms", "measure_ms",
            "retry_aborts", "label",
        ]

    def test_windows_replace_and_sum(self):
        """The ledger's fig5-sweep shortens a cell's windows with
        ``dataclasses.replace`` and reads ``total_ms``."""
        cfg = dataclasses.replace(config(), warmup_ms=30.0, measure_ms=120.0)
        assert (cfg.warmup_ms, cfg.measure_ms, cfg.total_ms) == (30.0, 120.0, 150.0)
        assert cfg.cluster == config().cluster


class TestPaperMethodology:
    def test_paper_methodology_deviation_under_5_percent(self):
        """The paper reports deviations below 5 % across its 10 runs; our
        simulated runs are at least that stable on a standard config."""
        runs = [
            run_experiment(config(measure_ms=1_500.0, clients=8, num_replicas=3, seed=seed))
            for seed in range(1_000, 1_005)
        ]

        def deviation(values):
            mean = sum(values) / len(values)
            return max(abs(v - mean) / mean for v in values)

        assert deviation([r.tps for r in runs]) < 0.05
        assert deviation([r.response_ms for r in runs]) < 0.15


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
        history = run_experiment(config(record_history=True)).history
        assert is_strongly_consistent(history)
        assert is_session_consistent(history, observational=True)

    def test_history_checks_skipped_by_default(self):
        assert run_experiment(config()).history is None

    def test_baseline_fails_strong_check(self):
        result = run_experiment(
            config(level="baseline", record_history=True, num_replicas=4, clients=8)
        )
        assert not is_strongly_consistent(result.history)

    def test_total_ms(self):
        cfg = config()
        assert cfg.total_ms == 500.0

    def test_certifier_counters_reported(self):
        result = run_experiment(config())
        assert result.certified == result.final_commit_version
        assert result.certification_aborts >= 0
        assert result.early_aborts >= 0
