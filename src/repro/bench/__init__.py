"""Experiment harness: configs, runner, and the paper's figures/tables."""

from .experiments import (
    LEVELS,
    AvailabilityMeasurement,
    AvailabilityResult,
    BreakdownResult,
    SeriesResult,
    availability,
    clear_cache,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    table1,
)
from .runner import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)

__all__ = [
    "LEVELS",
    "AvailabilityMeasurement",
    "AvailabilityResult",
    "availability",
    "BreakdownResult",
    "ExperimentConfig",
    "ExperimentResult",
    "SeriesResult",
    "clear_cache",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "run_experiment",
    "table1",
]
