"""Property: the analytical feasibility oracle agrees with the simulator.

:func:`repro.core.feasibility.check_feasibility` reasons about charge *gaps*
(no trajectory); :mod:`repro.sim.engine` integrates the energy trajectory.
For fixed cycles the two are independent implementations of the same
predicate, so on every randomly generated plan:

    check_feasibility(plan).feasible  <=>  simulate(plan).n_deaths == 0

All generated quantities are well separated — dispatch times on a 0.25
grid, power-of-two cycles — so neither side can flip on float noise and
the equivalence is exact, not approximate.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.feasibility import check_feasibility
from repro.core.schedule import ChargingScheduling, SchedulePlan
from repro.geometry.bbox import Rect
from repro.geometry.point import Point
from repro.network.builder import NetworkBuilder
from repro.sim.engine import simulate
from repro.sim.policies import PlannedPolicy
from repro.sim.workload import FixedWorkload
from repro.tsp.tour import Tour

_CYCLES = [1.0, 2.0, 4.0, 8.0, 2.0, 4.0]
_HORIZON = 12.0

_NET = (NetworkBuilder()
        .with_area(Rect.square(100.0))
        .with_sensors_at([Point(10, 10), Point(20, 10), Point(90, 90),
                          Point(80, 90), Point(50, 50), Point(10, 90)])
        .with_base_station_at(Point(50, 50))
        .with_depots_at([Point(45, 50), Point(85, 85)])
        .with_cycles(_CYCLES)
        .build())


def _scheduling(time: float, charged: frozenset[int]) -> ChargingScheduling:
    """All charged sensors on depot 0's tour; depot 1 stays home."""
    d0, d1 = int(_NET.depot_index(0)), int(_NET.depot_index(1))
    order = (d0, *sorted(charged)) if charged else (d0,)
    return ChargingScheduling(time=time, tours=(
        Tour(depot=d0, order=order), Tour(depot=d1, order=(d1,))))


@st.composite
def plans(draw) -> SchedulePlan:
    """Random fixed-cycle plans: 0-8 dispatches on the 0.25 grid, each
    charging a random sensor subset (possibly none)."""
    n_dispatch = draw(st.integers(0, 8))
    ticks = draw(st.lists(st.integers(1, int(_HORIZON / 0.25) - 1),
                          min_size=n_dispatch, max_size=n_dispatch,
                          unique=True))
    schedulings = []
    for tick in sorted(ticks):
        charged = frozenset(draw(st.sets(st.integers(0, _NET.n - 1))))
        schedulings.append(_scheduling(tick * 0.25, charged))
    return SchedulePlan.from_schedulings(tuple(schedulings), horizon=_HORIZON)


class TestOracleAgreement:
    @given(plans())
    @settings(max_examples=60, deadline=None)
    def test_feasibility_iff_no_simulated_deaths(self, plan):
        report = check_feasibility(plan, _NET.cycles)
        out = simulate(_NET, PlannedPolicy(plan), FixedWorkload.from_network(_NET),
                       _HORIZON)
        assert report.feasible == (out.metrics.n_deaths == 0), (
            f"oracle says feasible={report.feasible} but simulator recorded "
            f"{out.metrics.n_deaths} death(s): {report.summary()}")

    @given(plans())
    @settings(max_examples=30, deadline=None)
    def test_infeasible_reports_name_the_dying_sensors(self, plan):
        """When both sides see trouble they must blame the same sensors."""
        report = check_feasibility(plan, _NET.cycles)
        if report.feasible:
            return
        out = simulate(_NET, PlannedPolicy(plan), FixedWorkload.from_network(_NET),
                       _HORIZON)
        oracle_dead = {v.sensor for v in report.violations}
        sim_dead = {d.sensor for d in out.metrics.deaths}
        # The oracle stops at the first gap per sensor while the simulator
        # records every death; the *sets* of condemned sensors must match.
        assert oracle_dead == sim_dead

    def test_empty_plan_feasible_iff_horizon_within_min_cycle(self):
        empty = SchedulePlan(horizon=_HORIZON)
        assert not check_feasibility(empty, _NET.cycles).feasible
        short = SchedulePlan(horizon=float(np.min(_CYCLES)))
        assert check_feasibility(short, _NET.cycles).feasible
