"""Timescale-separation validation.

The paper's model charges instantaneously: "the time spent by the q mobile
chargers per charging task ... is several orders of magnitude less than the
lifetime of a fully-charged sensor. Therefore, we ignore the time spent per
charging task." That is an *assumption about the deployment*, not a theorem
— it fails if vehicles are slow, the area is large, or cycles are short.

:func:`validate_timescales` takes a concrete plan, a vehicle speed and a
per-sensor charging time and reports, for every scheduling, the ratio of
the round's duration (longest tour's travel + charging time — chargers
drive in parallel) to the tightest deadline among the sensors it charges.
A max ratio ≪ 1 certifies the paper's assumption for this deployment; a
ratio near or above 1 means the schedule would *not* keep sensors alive in
a travel-time-aware simulation, and the operator should add chargers,
shrink the area, or use the min-max balancer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.schedule import SchedulePlan
from repro.errors import ConfigError

__all__ = ["TimescaleReport", "validate_timescales"]


@dataclass(frozen=True)
class TimescaleReport:
    """Outcome of the timescale check.

    Parameters
    ----------
    max_ratio:
        Worst round-duration / deadline ratio over the plan. The paper's
        assumption corresponds to ``max_ratio << 1``.
    worst_time:
        Dispatch time of the worst round.
    round_durations:
        Per-scheduling round duration (hours of travel + charging, in the
        plan's time unit).
    deadlines:
        Per-scheduling tightest charged-sensor cycle.
    """

    max_ratio: float
    worst_time: float
    round_durations: np.ndarray
    deadlines: np.ndarray

    @property
    def separated(self) -> bool:
        """Whether the assumption comfortably holds (ratio under 10%)."""
        return self.max_ratio < 0.1

    def summary(self) -> str:
        if self.round_durations.size == 0:
            return "timescales: empty plan, nothing to validate"
        verdict = ("assumption holds" if self.separated else
                   "assumption STRAINED — consider more chargers or balancing")
        return (f"timescales: worst round/deadline ratio {self.max_ratio:.3g} "
                f"at t={self.worst_time:g} ({verdict})")


def validate_timescales(plan: SchedulePlan, coords: np.ndarray,
                        cycles: np.ndarray, *, speed: float,
                        charge_time: float = 0.0) -> TimescaleReport:
    """Measure the travel-time / charging-cycle separation of ``plan``.

    Parameters
    ----------
    plan:
        The charging plan to validate.
    coords:
        ``(n_nodes, 2)`` node coordinates (same units as ``speed``'s
        numerator); tour lengths are measured from them.
    cycles:
        ``(n,)`` maximum charging cycles, indexed by sensor id, in the same
        time unit the plan uses.
    speed:
        Vehicle speed in distance units per time unit (e.g. metres per
        paper-time-unit).
    charge_time:
        Time to charge one sensor (added per stop; the paper's ultrafast
        batteries make this ~0).

    Returns
    -------
    TimescaleReport
    """
    if speed <= 0:
        raise ConfigError(f"speed must be positive, got {speed}")
    if charge_time < 0:
        raise ConfigError(f"charge_time must be non-negative, got {charge_time}")
    c = np.asarray(coords)
    tau = np.asarray(cycles, dtype=np.float64)
    # Per table entry, then per dispatch. Chargers drive in parallel: a round
    # lasts as long as its longest tour (travel plus per-stop charging), and
    # its deadline is the tightest cycle among the sensors it charges.
    entry_durations = np.asarray(
        [max(tour.cost(coords=c) / speed + charge_time * tour.n_stops for tour in tours)
         for tours in plan.tour_sets], dtype=np.float64)
    entry_deadlines = np.asarray(
        [float(tau[list(charged)].min()) if charged else np.inf
         for charged in plan.charged_sets], dtype=np.float64)
    durations = entry_durations[plan.refs]
    deadlines = entry_deadlines[plan.refs]

    with np.errstate(invalid="ignore"):
        ratios = np.where(deadlines > 0, durations / deadlines, np.inf)
    if ratios.size == 0:
        return TimescaleReport(max_ratio=0.0, worst_time=0.0,
                               round_durations=durations, deadlines=deadlines)
    worst = int(np.argmax(ratios))
    return TimescaleReport(
        max_ratio=float(ratios[worst]),
        worst_time=float(plan.times[worst]),
        round_durations=durations, deadlines=deadlines)
