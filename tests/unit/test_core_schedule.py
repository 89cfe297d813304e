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
        return SchedulePlan(horizon=10.0, tour_sets=(sched.tours,),
                            times=[1.0, 2.0, 8.0], refs=[0, 0, 0])

    def test_len_iter_getitem(self, sched):
        plan = self._plan(sched)
        assert len(plan) == 3
        assert [s.time for s in plan] == [1.0, 2.0, 8.0]
        assert plan[1].time == 2.0
        assert all(s.tours is sched.tours for s in plan)

    def test_total_cost_caches_repeated_blocks(self, sched, dist):
        plan = self._plan(sched)
        assert plan.total_cost(dist) == pytest.approx(3 * sched.cost(dist))

    def test_total_cost_costs_equal_distinct_tour_sets_once(self, sched, dist,
                                                          monkeypatch):
        """Tour sets are matched by identity, then by value: an equal but
        distinct tuple shares the first one's table entry and cost."""
        twin = ChargingScheduling(time=8.0, tours=tuple(
            Tour(depot=t.depot, order=tuple(t.order)) for t in sched.tours))
        assert twin.tours == sched.tours and twin.tours is not sched.tours
        plan = SchedulePlan.from_schedulings(
            [ChargingScheduling(1.0, sched.tours),
             ChargingScheduling(2.0, sched.tours), twin], horizon=10.0)
        assert plan.tour_sets == (sched.tours,)
        assert plan.refs.tolist() == [0, 0, 0]
        costed = []
        real = Tour.cost
        monkeypatch.setattr(Tour, "cost",
                            lambda t, *a, **k: costed.append(t) or real(t, *a, **k))
        assert plan.total_cost(dist) == 3 * sched.cost(dist)
        assert len(costed) == 2 * len(sched.tours)  # once above, once for sched

    def test_total_cost_adds_left_to_right(self, dist):
        """One entry cost per dispatch, summed in dispatch order: the same
        bits as a per-dispatch loop, which ``cost x count`` would not give."""
        sets = tuple((Tour(depot=4, order=(4, *stops)),)
                     for stops in [(0,), (0, 1), (0, 1, 2), (3,)])
        refs = [0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2]
        plan = SchedulePlan(horizon=20.0, tour_sets=sets,
                            times=[float(j + 1) for j in range(len(refs))],
                            refs=refs)
        expected = 0.0
        for s in plan:
            expected += s.cost(dist)
        assert plan.total_cost(dist) == expected

    def test_charge_times_of(self, sched):
        plan = self._plan(sched)
        assert plan.charge_times_of(0) == [1.0, 2.0, 8.0]
        assert plan.charge_times_of(2) == []

    def test_sensors_covered(self, sched):
        assert self._plan(sched).sensors_covered() == {0, 1}

    def test_rejects_unsorted(self, sched):
        with pytest.raises(ScheduleError, match="increasing"):
            SchedulePlan(horizon=10.0, tour_sets=(sched.tours,),
                         times=[5.0, 1.0], refs=[0, 0])

    def test_rejects_duplicate_times(self, sched):
        with pytest.raises(ScheduleError, match="increasing"):
            SchedulePlan.from_schedulings(
                [ChargingScheduling(5.0, sched.tours)] * 2, horizon=10.0)

    def test_rejects_dispatch_at_horizon(self, sched):
        with pytest.raises(ScheduleError, match="horizon"):
            SchedulePlan(horizon=10.0, tour_sets=(sched.tours,),
                         times=[10.0], refs=[0])

    @pytest.mark.parametrize("times", [[-1.0], [float("nan")], [float("inf")]])
    def test_rejects_bad_times(self, sched, times):
        with pytest.raises(ScheduleError, match="finite and >= 0"):
            SchedulePlan(horizon=10.0, tour_sets=(sched.tours,), times=times,
                         refs=[0])

    @pytest.mark.parametrize("refs", [[1], [-1], [0.0], [True]])
    def test_rejects_bad_refs(self, sched, refs):
        with pytest.raises(ScheduleError, match="ref"):
            SchedulePlan(horizon=10.0, tour_sets=(sched.tours,), times=[1.0],
                         refs=refs)

    def test_rejects_bad_tour_sets(self):
        with pytest.raises(ScheduleError, match="one depot"):
            SchedulePlan(horizon=10.0, tour_sets=((Tour.empty(3), Tour.empty(3)),))
        with pytest.raises(ScheduleError, match="at least one tour"):
            SchedulePlan(horizon=10.0, tour_sets=((),))

    def test_from_schedulings_sorts(self, sched):
        plan = SchedulePlan.from_schedulings(
            [ChargingScheduling(5.0, sched.tours),
             ChargingScheduling(1.0, sched.tours)], horizon=10.0)
        assert [s.time for s in plan] == [1.0, 5.0]

    def test_equality_compares_all_fields_by_value(self, sched):
        plan = self._plan(sched)
        assert plan == self._plan(sched)
        assert plan != SchedulePlan(horizon=10.0, tour_sets=(sched.tours,),
                                    times=[1.0, 2.0, 9.0], refs=[0, 0, 0])
        assert plan != SchedulePlan(horizon=11.0, tour_sets=(sched.tours,),
                                    times=[1.0, 2.0, 8.0], refs=[0, 0, 0])

    def test_empty_plan_is_valid(self):
        plan = SchedulePlan(horizon=10.0)
        assert len(plan) == 0 and plan.sensors_covered() == frozenset()
        assert plan.total_cost(coords=np.zeros((1, 2))) == 0.0


class TestValidateFor:
    def test_own_plan_validates(self, tiny_network):
        from repro.core.mintotal import min_total_distance

        res = min_total_distance(tiny_network, horizon=8.0)
        res.plan.validate_for(tiny_network)  # must not raise

    def test_wrong_depot_rejected(self, tiny_network):
        # Depot index 0 is a *sensor* in the tiny network (depots are 6, 7).
        tour = Tour(depot=0, order=(0, 1))
        plan = SchedulePlan(horizon=10.0, tour_sets=((tour,),), times=[1.0],
                            refs=[0])
        with pytest.raises(ScheduleError, match="not a depot"):
            plan.validate_for(tiny_network)

    def test_out_of_range_node_rejected(self, tiny_network):
        depot = tiny_network.depot_index(0)
        tour = Tour(depot=depot, order=(depot, 99))
        plan = SchedulePlan(horizon=10.0, tour_sets=((tour,),), times=[1.0],
                            refs=[0])
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
        plan = SchedulePlan.from_schedulings(
            [ChargingScheduling(time=float(t), tours=ts)
             for t, ts in enumerate(tours)], horizon=10.0)
        with pytest.raises(ScheduleError,
                           match=rf"at t=4\.0 charges non-sensor nodes \[{n + 1}\]"):
            plan.validate_for(tiny_network)
        SchedulePlan.from_schedulings(list(plan)[:4], horizon=10.0).validate_for(
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
