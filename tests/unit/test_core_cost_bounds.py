"""Unit tests for plan costing (:meth:`SchedulePlan.total_cost`) and
:mod:`repro.core.bounds`."""

import numpy as np
import pytest

from repro.core.bounds import empirical_ratio, lemma3_lower_bound
from repro.core.mintotal import min_total_distance
from repro.errors import ScheduleError
from repro.rooted.qtsp import tours_total_cost


class TestServiceCost:
    def test_matches_plan_total(self, tiny_network):
        """``total_cost`` equals a left-to-right per-dispatch sum, bit for bit."""
        res = min_total_distance(tiny_network, horizon=16.0)
        d = tiny_network.dist
        expected = 0.0
        for sched in res.plan:
            expected += sched.cost(d)
        assert res.plan.total_cost(d) == expected

    def test_per_charger_sums_to_total(self, tiny_network):
        res = min_total_distance(tiny_network, horizon=16.0)
        d = tiny_network.dist
        per = np.zeros(tiny_network.q)
        for sched in res.plan:  # tour l of every dispatch is charger l's
            for l, tour in enumerate(sched.tours):
                per[l] += tour.cost(d)
        assert per.sum() == pytest.approx(res.plan.total_cost(d))

    def test_cost_series_periodicity(self, tiny_network):
        """Algorithm 3's dispatches repeat one block: refs (and so the
        per-dispatch costs) are periodic with the block size."""
        res = min_total_distance(tiny_network, horizon=32.0)
        bs = res.quantization.block_size
        np.testing.assert_array_equal(res.plan.refs[:bs], res.plan.refs[bs:2 * bs])
        costs = np.asarray([sched.cost(tiny_network.dist) for sched in res.plan])
        np.testing.assert_array_equal(costs[:bs], costs[bs:2 * bs])
        assert len(res.plan.tour_sets) <= res.quantization.K + 1

    def test_empty_plan(self, tiny_network):
        res = min_total_distance(tiny_network, horizon=1.0)
        assert len(res.plan) == 0 and res.plan.tour_sets == ()
        assert res.plan.total_cost(tiny_network.dist) == 0.0

    def test_coords_costing_equals_matrix_costing_exactly(self, paper_network_small):
        net = paper_network_small
        res = min_total_distance(net, horizon=200.0)
        d, c = net.dist, net.coordinates
        assert res.plan.total_cost(coords=c) == res.plan.total_cost(d)
        for tours in res.levels:
            assert tours_total_cost(None, tours, coords=c) == tours_total_cost(d, tours)

    def test_exactly_one_of_dist_or_coords(self, tiny_network):
        sched = min_total_distance(tiny_network, horizon=16.0).plan[0]
        with pytest.raises(TypeError, match="exactly one"):
            sched.cost()
        with pytest.raises(TypeError, match="exactly one"):
            sched.cost(tiny_network.dist, coords=tiny_network.coordinates)


class TestLemma3Bound:
    def test_bound_below_algorithm_cost(self, paper_network_small):
        horizon = 200.0
        res = min_total_distance(paper_network_small, horizon)
        cost = res.plan.total_cost(paper_network_small.dist)
        lb = lemma3_lower_bound(paper_network_small, horizon)
        assert 0 < lb.bound <= cost

    def test_ratio_within_guarantee(self, paper_network_small):
        horizon = 200.0
        res = min_total_distance(paper_network_small, horizon)
        cost = res.plan.total_cost(paper_network_small.dist)
        lb = lemma3_lower_bound(paper_network_small, horizon)
        ratio = empirical_ratio(cost, lb)
        assert ratio <= 2 * (res.quantization.K + 2) + 1e-9

    def test_per_level_array_shapes(self, paper_network_small):
        lb = lemma3_lower_bound(paper_network_small, 200.0)
        K = lb.quantization.K
        assert lb.per_level.shape == (K + 1,)
        assert lb.msf_weights.shape == (K + 1,)
        assert lb.bound == pytest.approx(lb.per_level.max())
        assert 0 <= lb.argmax_level <= K

    def test_msf_weights_monotone(self, paper_network_small):
        # Larger prefix sets can only cost more to span.
        lb = lemma3_lower_bound(paper_network_small, 200.0)
        assert np.all(np.diff(lb.msf_weights) >= -1e-9)

    def test_bound_scales_linearly_with_horizon(self, paper_network_small):
        lb1 = lemma3_lower_bound(paper_network_small, 200.0)
        lb2 = lemma3_lower_bound(paper_network_small, 400.0)
        assert lb2.bound == pytest.approx(2 * lb1.bound, rel=1e-6)

    def test_bad_horizon_raises(self, paper_network_small):
        with pytest.raises(ScheduleError):
            lemma3_lower_bound(paper_network_small, 0.0)

    def test_empirical_ratio_handles_zero_bound(self):
        assert empirical_ratio(10.0, 0.0) == float("inf")
        assert empirical_ratio(10.0, 5.0) == pytest.approx(2.0)
