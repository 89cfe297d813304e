"""Experiment harness: configs, runners, sweeps and the figure registry.

One :class:`~repro.experiments.config.ExperimentConfig` describes a single
evaluation *cell* (network size, distribution, workload volatility,
algorithms, repetition count); a
:class:`~repro.experiments.config.ScenarioSpec` names one.
:func:`~repro.experiments.runner.run_table` runs specs over independent
topologies into one :class:`~repro.experiments.runner.ResultTable`
(:func:`~repro.experiments.runner.run_cell` for a single config);
:func:`~repro.experiments.sweeps.sweep` varies one parameter across a cell
and reads the series a paper figure plots from that table; and
:mod:`~repro.experiments.figures` registers one pre-configured sweep per
panel of the paper's evaluation (Figs. 1–6) plus the ablations listed in
DESIGN.md.
"""

from repro.experiments.config import ExperimentConfig, ScenarioSpec
from repro.experiments.figures import FIGURES, FigureSpec, get_figure
from repro.experiments.runner import ResultTable, RunRow, run_cell, run_table
from repro.experiments.stats import ConfidenceInterval, mean_ci, paired_ratio_ci
from repro.experiments.sweeps import SweepResult, sweep

__all__ = [
    "FIGURES",
    "ConfidenceInterval",
    "ExperimentConfig",
    "FigureSpec",
    "ResultTable",
    "RunRow",
    "ScenarioSpec",
    "SweepResult",
    "get_figure",
    "mean_ci",
    "paired_ratio_ci",
    "run_cell",
    "run_table",
    "sweep",
]
