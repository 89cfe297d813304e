"""Integration: the full fixed-cycle pipeline on paper-style topologies.

deploy → plan (Algorithm 3) → simulate → metrics, cross-checked against the
greedy baseline and the analytical feasibility/cost layers.
"""

import numpy as np
import pytest

from repro.baselines.greedy import GreedyOnDemandPolicy
from repro.baselines.naive import NaiveChargeAllPolicy
from repro.baselines.periodic import periodic_per_sensor_plan
from repro.core.bounds import empirical_ratio, lemma3_lower_bound
from repro.core.feasibility import check_feasibility
from repro.core.mintotal import min_total_distance
from repro.sim.engine import simulate
from repro.sim.policies import PlannedPolicy
from repro.sim.workload import FixedWorkload

HORIZON = 300.0


@pytest.fixture(scope="module")
def pipeline(paper_network_small):
    net = paper_network_small
    wl = FixedWorkload.from_network(net)
    res = min_total_distance(net, HORIZON)
    mtd = simulate(net, PlannedPolicy(res.plan), wl, HORIZON)
    greedy = simulate(net, GreedyOnDemandPolicy(), wl, HORIZON)
    return net, res, mtd, greedy


class TestFixedPipeline:
    def test_both_perpetual(self, pipeline):
        _, _, mtd, greedy = pipeline
        assert mtd.metrics.perpetual
        assert greedy.metrics.perpetual

    def test_simulated_cost_equals_analytic(self, pipeline):
        net, res, mtd, _ = pipeline
        assert mtd.metrics.service_cost == pytest.approx(
            res.plan.total_cost(net.dist))

    def test_mtd_beats_greedy_linear(self, pipeline):
        _, _, mtd, greedy = pipeline
        ratio = mtd.metrics.service_cost / greedy.metrics.service_cost
        assert ratio < 0.95  # the paper's linear-regime win

    def test_feasibility_checker_agrees_with_simulator(self, pipeline):
        net, res, mtd, _ = pipeline
        assert check_feasibility(res.plan, net.cycles).feasible
        assert mtd.metrics.n_deaths == 0

    def test_lower_bound_chain(self, pipeline):
        net, res, mtd, _ = pipeline
        lb = lemma3_lower_bound(net, HORIZON)
        ratio = empirical_ratio(mtd.metrics.service_cost, lb)
        assert 1.0 <= ratio <= 2 * (res.quantization.K + 2)

    def test_per_charger_decomposition(self, pipeline):
        net, res, mtd, _ = pipeline
        per = np.zeros(net.q)
        for sched in res.plan:  # tour l of every dispatch is charger l's
            for l, tour in enumerate(sched.tours):
                per[l] += tour.cost(net.dist)
        np.testing.assert_allclose(per, mtd.metrics.per_charger, rtol=1e-9)
        assert per.sum() == pytest.approx(mtd.metrics.service_cost)

    def test_cost_series_sums_to_total(self, pipeline):
        net, res, mtd, _ = pipeline
        costs = np.asarray([sched.cost(net.dist) for sched in res.plan])
        assert costs.sum() == pytest.approx(mtd.metrics.service_cost)

    def test_every_sensor_charged(self, pipeline):
        net, _, mtd, _ = pipeline
        counts = mtd.metrics.charges_per_sensor(net.n)
        assert np.all(counts >= 1)

    def test_greedy_charges_lazier_than_mtd(self, pipeline):
        net, _, mtd, greedy = pipeline
        assert greedy.metrics.n_charges <= mtd.metrics.n_charges


class TestOtherBaselines:
    def test_naive_dominates_everything(self, paper_network_small):
        net = paper_network_small
        wl = FixedWorkload.from_network(net)
        naive = simulate(net, NaiveChargeAllPolicy(), wl, 100.0)
        greedy = simulate(net, GreedyOnDemandPolicy(), wl, 100.0)
        assert naive.metrics.perpetual
        assert naive.metrics.service_cost > greedy.metrics.service_cost

    def test_periodic_plan_round_trip(self, paper_network_small):
        net = paper_network_small
        plan = periodic_per_sensor_plan(net, 100.0)
        out = simulate(net, PlannedPolicy(plan), FixedWorkload.from_network(net),
                       100.0)
        assert out.metrics.perpetual
        assert out.metrics.service_cost == pytest.approx(
            plan.total_cost(net.dist))


class TestRandomDistributionPipeline:
    def test_paper_contrast_between_distributions(
            self, paper_network_small, paper_network_random_cycles):
        """The MTD/Greedy ratio must be materially better under the linear
        distribution than under the random one (Fig. 1a vs 1b)."""
        ratios = {}
        for label, net in [("linear", paper_network_small),
                           ("random", paper_network_random_cycles)]:
            wl = FixedWorkload.from_network(net)
            res = min_total_distance(net, HORIZON)
            mtd = simulate(net, PlannedPolicy(res.plan), wl, HORIZON)
            greedy = simulate(net, GreedyOnDemandPolicy(), wl, HORIZON)
            assert mtd.metrics.perpetual and greedy.metrics.perpetual
            ratios[label] = mtd.metrics.service_cost / greedy.metrics.service_cost
        assert ratios["linear"] < ratios["random"]
