"""Parameter sweeps: the series a paper figure plots.

A sweep varies one :class:`~repro.experiments.config.ExperimentConfig`
field across a list of values and runs the cell at each; the result holds
one :class:`~repro.experiments.runner.CellResult` per value plus helpers to
extract ``(x, mean_cost)`` series per algorithm — exactly what the paper's
figures show. Every (value, topology) job of a sweep goes through one
:func:`~repro.experiments.runner.execute` call (one process pool per sweep
under ``jobs > 1``), and the rows are folded back per value.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import CellResult, Job, execute
from repro.obs.instrument import Instrumentation, ensure

__all__ = ["SweepResult", "sweep"]


@dataclass(frozen=True)
class SweepResult:
    """Outcome of a one-parameter sweep.

    Parameters
    ----------
    parameter:
        The swept config field (or virtual parameter name).
    values:
        The sweep values, in run order.
    cells:
        One cell result per value.
    """

    parameter: str
    values: tuple[Any, ...]
    cells: tuple[CellResult, ...]

    @property
    def algorithms(self) -> tuple[str, ...]:
        if not self.cells:
            raise ConfigError(
                f"SweepResult over {self.parameter!r} has no cells; "
                "a sweep must run at least one value before its algorithms "
                "can be read")
        return self.cells[0].config.algorithms

    def series(self, algorithm: str) -> tuple[np.ndarray, np.ndarray]:
        """``(x, mean_cost)`` arrays for one algorithm across the sweep."""
        x = np.asarray(self.values, dtype=np.float64)
        y = np.asarray([c.by_name(algorithm).mean_cost for c in self.cells])
        return x, y

    def ratio_series(self, num: str, den: str) -> np.ndarray:
        """Per-value mean-cost ratio ``num / den``."""
        return np.asarray([c.ratio(num, den) for c in self.cells])

    def deaths(self, algorithm: str) -> np.ndarray:
        """Per-value total death counts (should be all zero)."""
        return np.asarray([c.by_name(algorithm).total_deaths for c in self.cells])

    def rows(self) -> list[list[Any]]:
        """Table rows: one per sweep value, columns = mean cost (and deaths
        if any) per algorithm. Used by the reporting layer and the CLI."""
        out: list[list[Any]] = []
        for v, cell in zip(self.values, self.cells):
            row: list[Any] = [v]
            for alg in self.algorithms:
                r = cell.by_name(alg)
                row.append(r.mean_cost)
            out.append(row)
        return out

    def header(self) -> list[str]:
        return [self.parameter] + [f"{a} (mean cost)" for a in self.algorithms]


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
    """
    if not values:
        raise ConfigError("sweep: empty value list")
    if not hasattr(base, parameter):
        raise ConfigError(f"sweep: ExperimentConfig has no field {parameter!r}")
    configs = [base.with_(**{parameter: v}) for v in values]
    ends = list(accumulate(cfg.n_topologies for cfg in configs))

    def done(index: int) -> None:
        if progress is not None and index + 1 in ends:
            k = ends.index(index + 1)
            progress(f"[sweep {parameter}={values[k]}] {configs[k].describe()}")

    with ensure(obs).span("sweep", parameter=parameter, values=len(values),
                          jobs=jobs):
        rows = execute([Job(cfg, r, cfg.algorithms) for cfg in configs
                        for r in range(cfg.n_topologies)],
                       workers=jobs, obs=obs, cache_dir=cache_dir,
                       on_done=done)
    cells = tuple(CellResult.from_rows(cfg, rows[end - cfg.n_topologies:end])
                  for cfg, end in zip(configs, ends))
    return SweepResult(parameter=parameter, values=tuple(values), cells=cells)
