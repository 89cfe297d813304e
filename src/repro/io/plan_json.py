"""JSON round-trip for :class:`~repro.core.schedule.SchedulePlan`.

The encoding is the plan's own dispatch table: the distinct tour *sets*
are stored once in ``tour_sets`` and each entry of ``schedulings`` is a
``(time, tours)`` pair whose ``tours`` indexes that table. Loading
restores the sharing, so a reloaded plan costs as fast as a fresh one.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.core.schedule import SchedulePlan
from repro.errors import ReproError
from repro.io.files import load_json, save_json
from repro.tsp.tour import Tour

__all__ = ["plan_to_dict", "plan_from_dict", "save_plan", "load_plan"]


def plan_to_dict(plan: SchedulePlan) -> dict[str, Any]:
    """Plain-JSON representation of a plan: its dispatch table as stored."""
    return {
        "horizon": plan.horizon,
        "tour_sets": [
            [{"depot": t.depot, "order": list(t.order)} for t in tours]
            for tours in plan.tour_sets
        ],
        "schedulings": [{"time": t, "tours": r}
                        for t, r in zip(plan.times.tolist(), plan.refs.tolist())],
    }


def plan_from_dict(data: dict[str, Any]) -> SchedulePlan:
    """Inverse of :func:`plan_to_dict` (sharing restored).

    Raises
    ------
    ReproError
        On malformed input, including a ``tours`` ref that is not an
        integer index into ``tour_sets`` (booleans and floats are
        rejected, not truncated); the plan's own validators also run, so a
        structurally valid but semantically broken file (duplicate depots,
        unsorted times) is rejected too.
    """
    try:
        table = tuple(
            tuple(Tour(depot=int(t["depot"]), order=tuple(int(v) for v in t["order"]))
                  for t in tours)
            for tours in data["tour_sets"]
        )
        times = [float(ref["time"]) for ref in data["schedulings"]]
        refs = [ref["tours"] for ref in data["schedulings"]]
        horizon = float(data["horizon"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproError(f"plan_from_dict: malformed plan data ({exc})") from exc
    for r in refs:
        if isinstance(r, bool) or not isinstance(r, int) or not 0 <= r < len(table):
            raise ReproError(f"plan_from_dict: malformed plan data (tour-set ref "
                             f"{r!r} is not an index into the {len(table)}-entry "
                             f"tour_sets table)")
    return SchedulePlan(horizon=horizon, tour_sets=table, times=times, refs=refs)


def save_plan(plan: SchedulePlan, path: str | Path) -> Path:
    """Serialise a plan to ``path``; returns the resolved path."""
    return save_json(path, "schedule-plan", plan_to_dict(plan))


def load_plan(path: str | Path) -> SchedulePlan:
    """Load a plan previously written by :func:`save_plan`."""
    return plan_from_dict(load_json(path, "schedule-plan"))
