"""Plan feasibility: does any sensor ever run out of energy?

A plan is feasible iff for every sensor the gap between consecutive charges
— treating time 0 as a (full) charge, and the horizon ``T`` as the final
deadline — never exceeds its maximum charging cycle ``tau_i`` (the paper's
constraints (i) and (ii) in Section III.C).

The checker is analytical (it inspects gaps, it does not simulate), so it is
exact for fixed cycles and fast enough to run inside property-based tests.
The slotted simulator in :mod:`repro.sim` provides the independent,
trajectory-level verification of the same property.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.schedule import SchedulePlan

__all__ = ["FeasibilityViolation", "FeasibilityReport", "check_feasibility"]

#: Relative slack for gap comparisons: quantisation may overshoot a cycle by
#: a few ulps (documented in repro.core.quantize); physical meaning is "the
#: battery hits exactly zero as the charger arrives", which the paper counts
#: as alive.
_REL_TOL = 1e-9


@dataclass(frozen=True)
class FeasibilityViolation:
    """One sensor running dry.

    Parameters
    ----------
    sensor:
        Sensor id.
    gap_start, gap_end:
        The uncovered interval: the sensor was last charged (or full) at
        ``gap_start`` and not charged again by ``gap_end``.
    cycle:
        The sensor's maximum charging cycle; ``gap_end - gap_start > cycle``.
    """

    sensor: int
    gap_start: float
    gap_end: float
    cycle: float

    @property
    def excess(self) -> float:
        """How much too long the gap is."""
        return (self.gap_end - self.gap_start) - self.cycle


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a feasibility check.

    Truthy iff feasible; ``violations`` lists every offending gap (one per
    sensor at most — the first encountered)."""

    feasible: bool
    violations: tuple[FeasibilityViolation, ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return self.feasible

    def summary(self) -> str:
        """Human-readable one-liner."""
        if self.feasible:
            return "feasible: every sensor is charged within its maximum cycle"
        worst = max(self.violations, key=lambda v: v.excess)
        return (f"INFEASIBLE: {len(self.violations)} sensor(s) die; worst is sensor "
                f"{worst.sensor} with gap {worst.gap_end - worst.gap_start:.4g} "
                f"> cycle {worst.cycle:.4g}")


def check_feasibility(plan: SchedulePlan, cycles: np.ndarray,
                      *, sensors: np.ndarray | None = None,
                      start_time: float = 0.0,
                      initially_full: bool = True) -> FeasibilityReport:
    """Check a plan against maximum charging cycles.

    Parameters
    ----------
    plan:
        The charging plan (its ``horizon`` is the deadline for the final gap).
    cycles:
        ``(n,)`` maximum charging cycles; index = sensor id.
    sensors:
        Sensor ids to check (default: all of ``0..n-1``).
    start_time:
        When the clock starts (sensors are full then if ``initially_full``).
    initially_full:
        If False, the first gap is not anchored at ``start_time``; the first
        charge itself is the anchor (used when checking plan *tails* whose
        sensors were charged by earlier schedulings).

    Returns
    -------
    FeasibilityReport
    """
    tau = np.asarray(cycles, dtype=np.float64)
    ids = np.arange(tau.shape[0]) if sensors is None else np.asarray(sensors, dtype=np.intp)

    # One pass over the plan to collect charge times per sensor; each
    # table entry's charged set is intersected with ``ids`` once.
    charges: dict[int, list[float]] = {int(i): [] for i in ids}
    wanted = set(charges)
    hits = [wanted & charged for charged in plan.charged_sets]
    for t, r in zip(plan.times.tolist(), plan.refs.tolist()):
        for i in hits[r]:
            charges[i].append(t)

    violations: list[FeasibilityViolation] = []
    for i in ids:
        t_i = float(tau[i])
        slack = t_i * _REL_TOL
        anchors = ([start_time] if initially_full else []) + charges[int(i)] + [plan.horizon]
        if not initially_full and not charges[int(i)]:
            # Never charged and no initial anchor: only the horizon matters,
            # and there is no interval to measure — treat as feasible here;
            # trajectory-level checks belong to the simulator.
            continue
        for a, b in zip(anchors, anchors[1:]):
            if b - a > t_i + slack:
                violations.append(FeasibilityViolation(
                    sensor=int(i), gap_start=a, gap_end=b, cycle=t_i))
                break
    return FeasibilityReport(feasible=not violations, violations=tuple(violations))
