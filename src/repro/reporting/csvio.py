"""CSV export of sweep results (stdlib :mod:`csv` only)."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any, Sequence

__all__ = ["write_csv", "sweep_to_csv"]


def write_csv(path: str | Path, header: Sequence[str],
              rows: Sequence[Sequence[Any]]) -> Path:
    """Write a header + rows to ``path`` (parent directories created).

    Returns the resolved path for logging convenience.
    """
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        writer.writerows(rows)
    return p.resolve()


def sweep_to_csv(result, path: str | Path,
                 *, with_deaths: bool = True) -> Path:
    """Export a :class:`~repro.experiments.sweeps.SweepResult`.

    Columns: the swept parameter, then per-algorithm mean cost, cost std,
    and (optionally) total deaths — everything needed to re-plot a paper
    panel without re-running it. The mean cost and deaths are the result
    table's metric fold (the scorecard's cells); the std is the sample
    std of the per-topology cost column.
    """
    header: list[str] = [result.parameter]
    for alg in result.algorithms:
        header.extend([f"{alg}_mean_cost", f"{alg}_std_cost"])
        if with_deaths:
            header.append(f"{alg}_deaths")
    rows: list[list] = []
    for v, point in zip(result.values, result.points):
        row: list = [v]
        for alg in result.algorithms:
            fold = result.table.metrics(point, alg)
            costs = result.costs(point, alg)
            row.extend([fold["service_cost"],
                        float(costs.std(ddof=1)) if costs.size > 1 else 0.0])
            if with_deaths:
                row.append(int(fold["deaths"]))
        rows.append(row)
    return write_csv(path, header, rows)
