"""Unit tests for :mod:`repro.adaptive.mintotal_var`."""

import numpy as np
import pytest

from repro.adaptive.mintotal_var import MinTotalDistanceVarPolicy
from repro.network.cycles import LinearCycleDistribution
from repro.sim.engine import simulate
from repro.sim.policies import SimulationView
from repro.sim.workload import FixedWorkload, ResampledWorkload


def _view(t, energy, rates, batteries=None):
    energy = np.asarray(energy, dtype=float)
    b = np.ones_like(energy) if batteries is None else np.asarray(batteries, float)
    return SimulationView(time=t, energy=energy, batteries=b,
                          observed_rates=np.asarray(rates, dtype=float))


class TestPlanLifecycle:
    def test_initial_observe_builds_plan(self, tiny_network):
        pol = MinTotalDistanceVarPolicy()
        pol.reset(tiny_network, horizon=16.0)
        pol.observe(_view(0.0, tiny_network.batteries, tiny_network.rates,
                          tiny_network.batteries))
        assert pol.next_dispatch_time(0.0) == pytest.approx(1.0)
        assert pol.n_replans == 0  # the initial plan is not a "replan"

    def test_dispatch_walks_queue(self, tiny_network):
        pol = MinTotalDistanceVarPolicy()
        pol.reset(tiny_network, horizon=4.0)
        pol.observe(_view(0.0, tiny_network.batteries, tiny_network.rates,
                          tiny_network.batteries))
        t1 = pol.next_dispatch_time(0.0)
        sched = pol.dispatch(_view(t1, tiny_network.batteries, tiny_network.rates,
                                   tiny_network.batteries))
        assert sched is not None and sched.time == pytest.approx(1.0)
        assert pol.next_dispatch_time(t1) == pytest.approx(2.0)

    def test_stable_rates_never_replan(self, tiny_network):
        pol = MinTotalDistanceVarPolicy()
        out = simulate(tiny_network, pol,
                       FixedWorkload.from_network(tiny_network), 16.0)
        assert out.metrics.perpetual
        assert pol.n_replans == 0

    def test_reset_clears_state(self, tiny_network):
        pol = MinTotalDistanceVarPolicy()
        simulate(tiny_network, pol, FixedWorkload.from_network(tiny_network), 8.0)
        pol.reset(tiny_network, horizon=8.0)
        assert pol.next_dispatch_time(0.0) is None  # no plan until observe


class TestReplanTriggers:
    def _warm_policy(self, net, horizon=32.0):
        pol = MinTotalDistanceVarPolicy()
        pol.reset(net, horizon)
        pol.observe(_view(0.0, net.batteries, net.rates, net.batteries))
        return pol

    def test_cycle_shrink_triggers_replan(self, tiny_network):
        pol = self._warm_policy(tiny_network)
        rates = tiny_network.rates.copy()
        rates[3] *= 4.0  # sensor 3's cycle drops from 8 to 2 < assigned 8
        pol.observe(_view(10.0, np.full(tiny_network.n, 0.9), rates,
                          tiny_network.batteries))
        assert pol.n_replans == 1

    def test_cycle_double_triggers_replan(self, tiny_network):
        pol = self._warm_policy(tiny_network)
        rates = tiny_network.rates.copy()
        rates[0] /= 4.0  # sensor 0's cycle grows 1 -> 4 >= 2 * assigned 1
        pol.observe(_view(10.0, np.full(tiny_network.n, 0.9), rates,
                          tiny_network.batteries))
        assert pol.n_replans == 1

    def test_within_window_keeps_plan(self, tiny_network):
        pol = self._warm_policy(tiny_network)
        rates = tiny_network.rates / 1.5  # cycles * 1.5: inside [tau', 2 tau')
        pol.observe(_view(10.0, tiny_network.batteries, rates,
                          tiny_network.batteries))
        assert pol.n_replans == 0

    def test_low_energy_survival_check_triggers(self, tiny_network):
        pol = self._warm_policy(tiny_network)
        # Same rates, but sensor 3 (assigned cycle 8, next charge t=8) is
        # nearly empty at t=2: it cannot reach t=8 -> replan + patch.
        energy = tiny_network.batteries.copy()
        energy[3] = 0.05
        pol.observe(_view(2.0, energy, tiny_network.rates, tiny_network.batteries))
        assert pol.n_replans == 1
        # The patch must charge sensor 3 at t=2 itself (lifetime 0.4 < tau1).
        t = pol.next_dispatch_time(2.0)
        assert t == pytest.approx(2.0)
        sched = pol.dispatch(_view(2.0, energy, tiny_network.rates,
                                   tiny_network.batteries))
        assert 3 in sched.charged_sensors


class TestEndToEnd:
    def test_variable_workload_perpetual(self, paper_network_small):
        wl = ResampledWorkload(network=paper_network_small,
                               distribution=LinearCycleDistribution(),
                               slot_duration=10.0, seed=5)
        pol = MinTotalDistanceVarPolicy()
        out = simulate(paper_network_small, pol, wl, 300.0)
        assert out.metrics.perpetual
        assert pol.n_replans > 0  # resampled cycles must force replans

    def test_report_threshold_reduces_replans(self, paper_network_small):
        wl = ResampledWorkload(network=paper_network_small,
                               distribution=LinearCycleDistribution(),
                               slot_duration=10.0, seed=5)
        eager = MinTotalDistanceVarPolicy(report_threshold=0.0)
        lazy = MinTotalDistanceVarPolicy(report_threshold=1.5)
        out_e = simulate(paper_network_small, eager, wl, 300.0)
        out_l = simulate(paper_network_small, lazy, wl, 300.0)
        assert lazy.n_replans <= eager.n_replans
        assert out_e.metrics.perpetual
        # NOTE: a large dead band can in principle cost feasibility; the
        # conservative survival check must still protect the lazy policy.
        assert out_l.metrics.perpetual

    def test_smoothing_gamma_still_perpetual(self, paper_network_small):
        wl = ResampledWorkload(network=paper_network_small,
                               distribution=LinearCycleDistribution(),
                               slot_duration=10.0, seed=6)
        pol = MinTotalDistanceVarPolicy(gamma=0.5)
        out = simulate(paper_network_small, pol, wl, 300.0)
        assert out.metrics.perpetual
