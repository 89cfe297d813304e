"""Unit tests for :mod:`repro.core.mintotal` (Algorithm 3)."""

import numpy as np
import pytest

from repro.core.feasibility import check_feasibility
from repro.core.mintotal import min_total_distance
from repro.core.quantize import quantize_cycles
from repro.errors import ScheduleError
from repro.plan import build_levels


class TestPlanStructure:
    def test_dispatch_times_are_tau1_grid(self, tiny_network):
        res = min_total_distance(tiny_network, horizon=16.0)
        # tau1 = 1 -> dispatches at 1..15 (never at T itself)
        np.testing.assert_allclose(res.plan.times, np.arange(1.0, 16.0))

    def test_no_dispatch_at_horizon(self, tiny_network):
        res = min_total_distance(tiny_network, horizon=8.0)
        assert res.plan.times[-1] < 8.0

    def test_block_repeats(self, tiny_network):
        res = min_total_distance(tiny_network, horizon=32.0)
        bs = res.quantization.block_size  # 8 (K = 3)
        assert bs == 8
        # Scheduling j and j + block_size share the same tour tuple object.
        for j in range(len(res.plan) - bs):
            assert res.plan[j].tours is res.plan[j + bs].tours

    def test_class_membership_drives_coverage(self, tiny_network):
        # cycles [1,2,4,8,2,4]: sensor0 charged every slot, sensor3 every 8th.
        res = min_total_distance(tiny_network, horizon=16.0)
        assert res.plan.charge_times_of(0) == pytest.approx(list(np.arange(1.0, 16.0)))
        assert res.plan.charge_times_of(3) == pytest.approx([8.0])

    def test_depots_never_charged(self, tiny_network):
        res = min_total_distance(tiny_network, horizon=16.0)
        covered = res.plan.sensors_covered()
        assert covered == set(range(tiny_network.n))

    def test_start_time_offsets_grid(self, tiny_network):
        res = min_total_distance(tiny_network, horizon=10.0, start_time=4.0)
        assert res.plan.times[0] == pytest.approx(5.0)
        assert res.plan.times[-1] < 10.0

    def test_cycles_override(self, tiny_network):
        res = min_total_distance(tiny_network, horizon=8.0,
                                 cycles=np.full(tiny_network.n, 2.0))
        assert res.quantization.K == 0
        np.testing.assert_allclose(res.plan.times, [2.0, 4.0, 6.0])


class TestFeasibility:
    def test_plan_is_feasible(self, paper_network_small):
        res = min_total_distance(paper_network_small, horizon=200.0)
        report = check_feasibility(res.plan, paper_network_small.cycles)
        assert report.feasible, report.summary()

    def test_feasible_under_random_cycles(self, paper_network_random_cycles):
        net = paper_network_random_cycles
        res = min_total_distance(net, horizon=200.0)
        assert check_feasibility(res.plan, net.cycles).feasible


class TestBlockCosts:
    def test_block_costs_monotone_in_coverage(self, tiny_network):
        # Level v covers V0 ∪ ... ∪ Vv, so a higher level never costs less.
        res = min_total_distance(tiny_network, horizon=16.0)
        d = tiny_network.dist
        costs = [sum(t.cost(d) for t in tours) for tours in res.levels]
        assert len(costs) == res.quantization.K + 1
        assert all(b >= a - 1e-9 for a, b in zip(costs, costs[1:]))

    def test_build_levels_caches_identical_sets(self, tiny_network):
        # Cycles [1, 1, 4, 4, 1, 4] leave V1 empty: levels 0 and 1 cover the
        # same set, so they share one tuple object.
        quant = quantize_cycles(np.array([1.0, 1.0, 4.0, 4.0, 1.0, 4.0]))
        assert quant.K == 2 and quant.members(1).size == 0
        levels = build_levels(tiny_network, quant)
        assert levels[0] is levels[1]
        assert levels[2] is not levels[0]

    def test_refine_never_worsens_block(self, paper_network_small):
        plain = min_total_distance(paper_network_small, horizon=64.0)
        refined = min_total_distance(paper_network_small, horizon=64.0, refine=True)
        d = paper_network_small.dist
        assert (refined.plan.total_cost(d) <= plain.plan.total_cost(d) + 1e-9)


class TestValidation:
    def test_bad_horizon_raises(self, tiny_network):
        with pytest.raises(ScheduleError):
            min_total_distance(tiny_network, horizon=0.0)
        with pytest.raises(ScheduleError):
            min_total_distance(tiny_network, horizon=5.0, start_time=5.0)

    def test_bad_cycles_shape_raises(self, tiny_network):
        with pytest.raises(ScheduleError):
            min_total_distance(tiny_network, horizon=10.0, cycles=np.ones(3))

    def test_short_horizon_empty_plan(self, tiny_network):
        # horizon <= tau1: nothing needs charging before T.
        res = min_total_distance(tiny_network, horizon=1.0)
        assert len(res.plan) == 0
