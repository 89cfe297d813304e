"""Parameter sweeps: the series a paper figure plots.

A sweep varies one :class:`~repro.experiments.config.ExperimentConfig`
field across a list of values. Each value is one
:class:`~repro.experiments.config.ScenarioSpec` *point* — the base spec
with that field overridden, just as a suite resolves its members — and
every (point, topology) job goes through one
:func:`~repro.experiments.runner.run_table` call (one process pool per
sweep under ``jobs > 1``). The :class:`SweepResult` reads the
``(x, mean_cost)`` series per algorithm — exactly what the paper's figures
show — from that one result table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.experiments.config import ExperimentConfig, ScenarioSpec
from repro.experiments.runner import ResultTable, run_table
from repro.obs.instrument import Instrumentation, ensure

__all__ = ["SweepResult", "sweep"]


@dataclass(frozen=True)
class SweepResult:
    """Outcome of a one-parameter sweep.

    Parameters
    ----------
    parameter:
        The swept config field.
    table:
        The result table; its specs are the sweep's points, in run order.
    """

    parameter: str
    table: ResultTable

    @property
    def points(self) -> tuple[ScenarioSpec, ...]:
        return self.table.specs

    @property
    def values(self) -> tuple[Any, ...]:
        """The sweep values, in run order."""
        return tuple(getattr(p.config, self.parameter) for p in self.points)

    @property
    def algorithms(self) -> tuple[str, ...]:
        if not self.points:
            raise ConfigError(
                f"SweepResult over {self.parameter!r} has no points; "
                "a sweep must run at least one value before its algorithms "
                "can be read")
        return self.points[0].config.algorithms

    def costs(self, point: ScenarioSpec, algorithm: str) -> np.ndarray:
        """Per-topology service costs of one algorithm at one point."""
        return self.table.column(point, algorithm, "cost")

    def _fold(self, algorithm: str, key: str) -> list[float]:
        """One :meth:`~repro.experiments.runner.ResultTable.metrics` column
        across the sweep: the scorecard's fold, so a panel and its
        scorecard cells read the same numbers."""
        return [self.table.metrics(p, algorithm)[key] for p in self.points]

    def series(self, algorithm: str) -> tuple[np.ndarray, np.ndarray]:
        """``(x, mean_cost)`` arrays for one algorithm across the sweep.

        ``x`` is float64 for a numeric parameter and holds the swept
        values unconverted (an object array) for a categorical one such as
        ``deployment``."""
        try:
            x = np.asarray(self.values, dtype=np.float64)
        except ValueError:
            x = np.asarray(self.values, dtype=object)
        return x, np.asarray(self._fold(algorithm, "service_cost"))

    def ratio_series(self, num: str, den: str) -> np.ndarray:
        """Per-value mean-cost ratio ``num / den``."""
        return np.asarray([n / d if d > 0 else np.inf for n, d in
                           zip(self._fold(num, "service_cost"),
                               self._fold(den, "service_cost"))])

    def deaths(self, algorithm: str) -> np.ndarray:
        """Per-value total death counts (should be all zero)."""
        return np.asarray([int(d) for d in self._fold(algorithm, "deaths")])

    def rows(self) -> list[list[Any]]:
        """Table rows: one per sweep value, then the mean cost per
        algorithm. Used by the reporting layer."""
        means = [self._fold(alg, "service_cost") for alg in self.algorithms]
        return [[v, *col] for v, *col in zip(self.values, *means)]

    def header(self) -> list[str]:
        return [self.parameter] + [f"{a} (mean cost)" for a in self.algorithms]


def _run_points(parameter: str, points: Sequence[ScenarioSpec], *,
               progress: Callable[[str], None] | None = None,
               obs: Instrumentation | None = None,
               jobs: int = 1, cache_dir: str | None = None) -> SweepResult:
    """Run a sweep's points (one spec per value of ``parameter``) in one
    :func:`~repro.experiments.runner.run_table` call; the keyword
    arguments are :func:`sweep`'s."""

    def done(_: int, point: ScenarioSpec, topology: int) -> None:
        if progress is not None and topology + 1 == point.config.n_topologies:
            progress(f"[sweep {parameter}={getattr(point.config, parameter)}] "
                     f"{point.config.describe()}")

    with ensure(obs).span("sweep", parameter=parameter, values=len(points),
                          jobs=jobs):
        table = run_table(points, jobs=jobs, obs=obs, cache_dir=cache_dir,
                          on_done=done)
    return SweepResult(parameter=parameter, table=table)


def sweep(base: ExperimentConfig, parameter: str, values: Sequence[Any],
          *, progress: Callable[[str], None] | None = None,
          obs: Instrumentation | None = None,
          jobs: int = 1, cache_dir: str | None = None) -> SweepResult:
    """Run ``base`` once per value of ``parameter``.

    Parameters
    ----------
    base:
        The cell template.
    parameter:
        Name of an :class:`ExperimentConfig` field to vary.
    values:
        Values to assign (validated by the config's ``__post_init__``).
    progress:
        Optional callback invoked with a human-readable line as each
        sweep point completes (the CLI passes a logger method).
    obs:
        Optional instrumentation context: a ``sweep`` span around the run,
        plus every policy run's counters and ``cell.<algorithm>`` spans.
    jobs:
        Worker processes shared by every (value, topology) job of the
        sweep; results match the serial path bit for bit.
    cache_dir:
        Optional on-disk plan-artifact store directory shared by every
        job; sweep points over shared geometry (and repeat runs of the
        same sweep) then replan warm from disk. Results are unaffected.

    The result table keys its rows by point, so ``values`` must give
    distinct points: a repeated value (``[2, 2]``, or ``[10, 10.0]``,
    which compare equal) raises :class:`~repro.errors.ConfigError`.
    """
    if not values:
        raise ConfigError("sweep: empty value list")
    if not hasattr(base, parameter):
        raise ConfigError(f"sweep: ExperimentConfig has no field {parameter!r}")
    spec = ScenarioSpec("sweep", base.describe(), base)
    return _run_points(parameter,
                      [spec.with_overrides(**{parameter: v}) for v in values],
                      progress=progress, obs=obs, jobs=jobs,
                      cache_dir=cache_dir)
