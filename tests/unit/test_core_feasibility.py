"""Unit tests for :mod:`repro.core.feasibility`."""

import numpy as np
import pytest

from repro.core.feasibility import check_feasibility
from repro.core.schedule import ChargingScheduling, SchedulePlan
from repro.tsp.tour import Tour


def _plan(times_by_sensor: dict[int, list[float]], horizon: float,
          depot: int = 10) -> SchedulePlan:
    """Build a plan charging each sensor at the given times (one scheduling
    per distinct time)."""
    by_time: dict[float, list[int]] = {}
    for sensor, times in times_by_sensor.items():
        for t in times:
            by_time.setdefault(t, []).append(sensor)
    scheds = []
    for t in sorted(by_time):
        tour = Tour(depot=depot, order=(depot, *sorted(by_time[t])))
        scheds.append(ChargingScheduling(time=t, tours=(tour,)))
    return SchedulePlan.from_schedulings(tuple(scheds), horizon=horizon)


class TestFeasible:
    def test_regular_charging_ok(self):
        plan = _plan({0: [2.0, 4.0, 6.0, 8.0]}, horizon=10.0)
        report = check_feasibility(plan, np.array([2.0]))
        assert report.feasible
        assert bool(report) is True

    def test_gap_exactly_tau_is_ok(self):
        plan = _plan({0: [3.0, 6.0]}, horizon=9.0)
        assert check_feasibility(plan, np.array([3.0])).feasible

    def test_never_charged_but_tau_covers_horizon(self):
        plan = SchedulePlan(horizon=5.0)
        assert check_feasibility(plan, np.array([5.0])).feasible

    def test_multiple_sensors_independent(self):
        plan = _plan({0: [1.0, 2.0, 3.0], 1: [2.0]}, horizon=4.0)
        report = check_feasibility(plan, np.array([1.0, 2.0]))
        assert report.feasible


class TestInfeasible:
    def test_initial_gap_violation(self):
        plan = _plan({0: [5.0]}, horizon=6.0)
        report = check_feasibility(plan, np.array([2.0]))
        assert not report.feasible
        v = report.violations[0]
        assert v.sensor == 0 and v.gap_start == 0.0 and v.gap_end == 5.0
        assert v.excess == pytest.approx(3.0)

    def test_final_gap_violation(self):
        plan = _plan({0: [1.0]}, horizon=10.0)
        report = check_feasibility(plan, np.array([2.0]))
        assert not report.feasible
        assert report.violations[0].gap_end == 10.0

    def test_middle_gap_violation(self):
        plan = _plan({0: [2.0, 9.0]}, horizon=10.0)
        report = check_feasibility(plan, np.array([3.0]))
        assert not report.feasible
        assert (report.violations[0].gap_start,
                report.violations[0].gap_end) == (2.0, 9.0)

    def test_summary_mentions_worst(self):
        plan = _plan({0: [9.0], 1: [1.0, 2.0]}, horizon=10.0)
        report = check_feasibility(plan, np.array([1.0, 1.0]))
        assert "INFEASIBLE" in report.summary()

    def test_one_violation_reported_per_sensor(self):
        plan = _plan({0: [4.0, 9.0]}, horizon=14.0)
        report = check_feasibility(plan, np.array([1.0]))
        assert len(report.violations) == 1


class TestOptions:
    def test_sensor_subset(self):
        plan = _plan({0: [3.5], 1: [1.0, 2.0, 3.0]}, horizon=4.0)
        # Sensor 0 (cycle 1) violates, but we only check sensor 1.
        report = check_feasibility(plan, np.array([1.0, 1.0]),
                                   sensors=np.array([1]))
        assert report.feasible
        assert not check_feasibility(plan, np.array([1.0, 1.0])).feasible

    def test_start_time_anchor(self):
        plan = _plan({0: [6.0]}, horizon=7.0)
        assert not check_feasibility(plan, np.array([3.0])).feasible
        assert check_feasibility(plan, np.array([3.0]), start_time=3.0).feasible

    def test_not_initially_full(self):
        plan = _plan({0: [9.0]}, horizon=10.0)
        # With no initial anchor, the only gap is 9 -> 10.
        report = check_feasibility(plan, np.array([2.0]), initially_full=False)
        assert report.feasible
