"""Unit tests for :mod:`repro.core.schedule`."""

import numpy as np
import pytest

from repro.core.schedule import ChargingScheduling, SchedulePlan
from repro.errors import ScheduleError
from repro.geometry.distance import distance_matrix
from repro.tsp.tour import Tour


@pytest.fixture
def dist():
    return distance_matrix(np.array(
        [[0, 0], [10, 0], [10, 10], [0, 10], [5, 5]], dtype=float))


@pytest.fixture
def sched(dist):
    """One scheduling: depot 4 tours sensors 0,1; depot 3 stays home."""
    return ChargingScheduling(
        time=5.0,
        tours=(Tour(depot=4, order=(4, 0, 1)), Tour.empty(3)))


class TestChargingScheduling:
    def test_charged_sensors_excludes_depots(self, sched):
        assert sched.charged_sensors == {0, 1}

    def test_cost_sums_tours(self, sched, dist):
        expected = Tour(depot=4, order=(4, 0, 1)).cost(dist)
        assert sched.cost(dist) == pytest.approx(expected)

    def test_q(self, sched):
        assert sched.q == 2

    def test_at_time_shares_tours(self, sched):
        later = sched.at_time(9.0)
        assert later.time == 9.0
        assert later.tours is sched.tours

    def test_rejects_negative_time(self):
        with pytest.raises(ScheduleError):
            ChargingScheduling(time=-1.0, tours=(Tour.empty(0),))

    def test_rejects_no_tours(self):
        with pytest.raises(ScheduleError):
            ChargingScheduling(time=0.0, tours=())

    def test_rejects_duplicate_depots(self):
        with pytest.raises(ScheduleError, match="one depot"):
            ChargingScheduling(time=0.0, tours=(Tour.empty(3), Tour.empty(3)))


class TestSchedulePlan:
    def _plan(self, sched):
        return SchedulePlan(
            schedulings=(sched.at_time(1.0), sched.at_time(2.0), sched.at_time(8.0)),
            horizon=10.0)

    def test_len_iter_getitem(self, sched):
        plan = self._plan(sched)
        assert len(plan) == 3
        assert [s.time for s in plan] == [1.0, 2.0, 8.0]
        assert plan[1].time == 2.0

    def test_total_cost_caches_repeated_blocks(self, sched, dist):
        plan = self._plan(sched)
        assert plan.total_cost(dist) == pytest.approx(3 * sched.cost(dist))

    def test_total_cost_costs_equal_distinct_tour_sets_once(self, sched, dist,
                                                          monkeypatch):
        """Tour sets are matched by identity, then by value: an equal but
        distinct tuple reuses the first one's cost."""
        twin = ChargingScheduling(time=8.0, tours=tuple(
            Tour(depot=t.depot, order=tuple(t.order)) for t in sched.tours))
        assert twin.tours == sched.tours and twin.tours is not sched.tours
        plan = SchedulePlan(
            schedulings=(sched.at_time(1.0), sched.at_time(2.0), twin),
            horizon=10.0)
        costed = []
        real = ChargingScheduling.cost
        monkeypatch.setattr(ChargingScheduling, "cost",
                            lambda s, *a, **k: costed.append(s) or real(s, *a, **k))
        assert plan.total_cost(dist) == 3 * real(sched, dist)
        assert len(costed) == 1

    def test_charge_times_of(self, sched):
        plan = self._plan(sched)
        assert plan.charge_times_of(0) == [1.0, 2.0, 8.0]
        assert plan.charge_times_of(2) == []

    def test_sensors_covered(self, sched):
        assert self._plan(sched).sensors_covered() == {0, 1}

    def test_between(self, sched):
        plan = self._plan(sched)
        assert [s.time for s in plan.between(1.5, 8.0)] == [2.0]

    def test_rejects_unsorted(self, sched):
        with pytest.raises(ScheduleError, match="increasing"):
            SchedulePlan(schedulings=(sched.at_time(5.0), sched.at_time(1.0)),
                         horizon=10.0)

    def test_rejects_duplicate_times(self, sched):
        with pytest.raises(ScheduleError, match="increasing"):
            SchedulePlan(schedulings=(sched.at_time(5.0), sched.at_time(5.0)),
                         horizon=10.0)

    def test_rejects_dispatch_at_horizon(self, sched):
        with pytest.raises(ScheduleError, match="horizon"):
            SchedulePlan(schedulings=(sched.at_time(10.0),), horizon=10.0)

    def test_from_schedulings_sorts(self, sched):
        plan = SchedulePlan.from_schedulings(
            [sched.at_time(5.0), sched.at_time(1.0)], horizon=10.0)
        assert [s.time for s in plan] == [1.0, 5.0]

    def test_merged_with(self, sched):
        plan = self._plan(sched)
        merged = plan.merged_with([sched.at_time(0.5)])
        assert [s.time for s in merged] == [0.5, 1.0, 2.0, 8.0]

    def test_empty_plan_is_valid(self):
        plan = SchedulePlan(schedulings=(), horizon=10.0)
        assert len(plan) == 0 and plan.sensors_covered() == frozenset()


class TestValidateFor:
    def test_own_plan_validates(self, tiny_network):
        from repro.core.mintotal import min_total_distance

        res = min_total_distance(tiny_network, horizon=8.0)
        res.plan.validate_for(tiny_network)  # must not raise

    def test_wrong_depot_rejected(self, tiny_network):
        # Depot index 0 is a *sensor* in the tiny network (depots are 6, 7).
        tour = Tour(depot=0, order=(0, 1))
        plan = SchedulePlan(
            schedulings=(ChargingScheduling(time=1.0, tours=(tour,)),),
            horizon=10.0)
        with pytest.raises(ScheduleError, match="not a depot"):
            plan.validate_for(tiny_network)

    def test_out_of_range_node_rejected(self, tiny_network):
        depot = tiny_network.depot_index(0)
        tour = Tour(depot=depot, order=(depot, 99))
        plan = SchedulePlan(
            schedulings=(ChargingScheduling(time=1.0, tours=(tour,)),),
            horizon=10.0)
        with pytest.raises(ScheduleError, match="out of range"):
            plan.validate_for(tiny_network)

    def test_bad_set_first_referenced_late_is_reported_at_its_first_time(
            self, tiny_network):
        # Two shared tour sets: the good one dispatched first and often, the
        # bad one (depot 6's tour visits depot 7) first used at t=4.0.
        n = tiny_network.n
        good = (Tour(depot=n, order=(n, 0, 1)), Tour.empty(n + 1))
        bad = (Tour(depot=n, order=(n, 2, n + 1)),)
        tours = [good, good, good, good, bad, good, bad]
        plan = SchedulePlan(
            schedulings=tuple(ChargingScheduling(time=float(t), tours=ts)
                              for t, ts in enumerate(tours)),
            horizon=10.0)
        with pytest.raises(ScheduleError,
                           match=rf"at t=4\.0 charges non-sensor nodes \[{n + 1}\]"):
            plan.validate_for(tiny_network)
        SchedulePlan(schedulings=plan.schedulings[:4], horizon=10.0).validate_for(
            tiny_network)  # the good set alone is fine

    def test_cli_simulate_rejects_mismatched_files(self, tmp_path):
        from repro.cli import main
        from repro.core.mintotal import min_total_distance
        from repro.io import save_network, save_plan
        from repro.network.builder import build_paper_network

        big = build_paper_network(n=30, q=3, seed=1)
        small = build_paper_network(n=10, q=2, seed=2)
        plan = min_total_distance(big, 50.0).plan
        net_p = save_network(small, tmp_path / "net.json")
        plan_p = save_plan(plan, tmp_path / "plan.json")
        with pytest.raises(ScheduleError, match="mismatch"):
            main(["simulate", "--network", str(net_p), "--plan", str(plan_p)])
