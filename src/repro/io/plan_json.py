"""JSON round-trip for :class:`~repro.core.schedule.SchedulePlan`.

Algorithm 3's plans repeat one block of tour sets over the whole period, so
the natural encoding deduplicates: distinct tour *sets* are stored once in
a table and schedulings reference them by index. Loading restores the
sharing, so a reloaded plan costs as fast as a fresh one.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.core.schedule import ChargingScheduling, SchedulePlan
from repro.errors import ReproError
from repro.io.files import load_json, save_json
from repro.tsp.tour import Tour

__all__ = ["plan_to_dict", "plan_from_dict", "save_plan", "load_plan"]


def plan_to_dict(plan: SchedulePlan) -> dict[str, Any]:
    """Deduplicated plain-JSON representation of a plan.

    Tour sets are matched by object identity first and by value once per
    distinct object: planners share one tuple across all schedulings of a
    level, so the table costs one tuple hash per distinct object instead of
    one per scheduling. Equal but distinct tuples still share an entry.
    """
    table: list[tuple[Tour, ...]] = []
    index_of: dict[tuple[Tour, ...], int] = {}
    index_of_id: dict[int, int] = {}
    refs: list[dict[str, Any]] = []
    for s in plan.schedulings:
        tours = s.tours
        idx = index_of_id.get(id(tours))
        if idx is None:
            idx = index_of.get(tours)
            if idx is None:
                idx = index_of[tours] = len(table)
                table.append(tours)
            index_of_id[id(tours)] = idx
        refs.append({"time": s.time, "tours": idx})
    return {
        "horizon": plan.horizon,
        "tour_sets": [
            [{"depot": t.depot, "order": list(t.order)} for t in tours]
            for tours in table
        ],
        "schedulings": refs,
    }


def plan_from_dict(data: dict[str, Any]) -> SchedulePlan:
    """Inverse of :func:`plan_to_dict` (sharing restored).

    Raises
    ------
    ReproError
        On malformed input; the underlying schedule validators also run, so
        a structurally valid but semantically broken file (duplicate depots,
        unsorted times) is rejected too.
    """
    try:
        table = tuple(
            tuple(Tour(depot=int(t["depot"]), order=tuple(int(v) for v in t["order"]))
                  for t in tours)
            for tours in data["tour_sets"]
        )
        schedulings = tuple(
            ChargingScheduling(time=float(ref["time"]), tours=table[int(ref["tours"])])
            for ref in data["schedulings"]
        )
        horizon = float(data["horizon"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ReproError(f"plan_from_dict: malformed plan data ({exc})") from exc
    return SchedulePlan(schedulings=schedulings, horizon=horizon)


def save_plan(plan: SchedulePlan, path: str | Path) -> Path:
    """Serialise a plan to ``path``; returns the resolved path."""
    return save_json(path, "schedule-plan", plan_to_dict(plan))


def load_plan(path: str | Path) -> SchedulePlan:
    """Load a plan previously written by :func:`save_plan`."""
    return plan_from_dict(load_json(path, "schedule-plan"))
