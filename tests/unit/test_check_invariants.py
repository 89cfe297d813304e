"""Unit tests for repro.check.invariants.

Two angles: a real engine run must pass with zero violations (the shadow
integral mirrors the engine's arithmetic exactly), and hand-fed corrupt
event streams must each trip the specific invariant they break.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.check.invariants import InvariantChecker
from repro.core.mintotal import min_total_distance
from repro.errors import CheckError
from repro.obs import Instrumentation
from repro.sim.engine import simulate
from repro.sim.policies import PlannedPolicy
from repro.sim.workload import FixedWorkload
from repro.tsp.tour import Tour


class TestCleanRuns:
    def test_engine_run_produces_no_violations(self, tiny_network):
        plan = min_total_distance(tiny_network, 20.0).plan
        checker = InvariantChecker(tiny_network)
        out = simulate(tiny_network, PlannedPolicy(plan),
                       FixedWorkload.from_network(tiny_network), 20.0,
                       hooks=checker)
        assert checker.violations == []
        assert checker.observed_plan_cost == pytest.approx(
            out.metrics.service_cost)
        assert checker.summary() == "invariants: all hold"

    def test_run_with_deaths_still_clean(self, tiny_network):
        # An empty plan starves every sensor; the engine records the deaths
        # and the checker must agree that it did so *correctly*.
        from repro.core.schedule import SchedulePlan

        plan = SchedulePlan(horizon=20.0)
        checker = InvariantChecker(tiny_network)
        out = simulate(tiny_network, PlannedPolicy(plan),
                       FixedWorkload.from_network(tiny_network), 20.0,
                       hooks=checker)
        assert out.metrics.n_deaths == tiny_network.n
        assert checker.violations == []

    def test_counters(self, tiny_network):
        obs = Instrumentation()
        plan = min_total_distance(tiny_network, 20.0).plan
        checker = InvariantChecker(tiny_network, obs=obs)
        simulate(tiny_network, PlannedPolicy(plan),
                 FixedWorkload.from_network(tiny_network), 20.0, hooks=checker)
        assert obs.counters["check.invariant.runs"] == 1
        assert "check.invariant.violations" not in obs.counters


class TestCorruptStreams:
    """Feed the hooks a doctored event stream; each must be caught."""

    def _started(self, net, *, raising=True) -> InvariantChecker:
        checker = InvariantChecker(net, raise_on_violation=raising)
        checker.on_start(net, 20.0, net.batteries.copy())
        return checker

    def test_wrong_initial_energy(self, tiny_network):
        checker = InvariantChecker(tiny_network, raise_on_violation=False)
        checker.on_start(tiny_network, 20.0,
                         tiny_network.batteries * 0.5)
        assert [v.invariant for v in checker.violations] == ["energy"]

    def test_energy_divergence_caught(self, tiny_network):
        checker = self._started(tiny_network)
        rates = tiny_network.batteries / tiny_network.cycles
        wrong = tiny_network.batteries - 0.5 * rates  # engine "forgot" half
        with pytest.raises(CheckError) as err:
            checker.on_advance(0.0, 1.0, rates, wrong)
        assert err.value.invariant == "energy"

    def test_non_contiguous_timeline_caught(self, tiny_network):
        checker = self._started(tiny_network)
        rates = np.zeros(tiny_network.n)
        checker.on_advance(0.0, 1.0, rates, tiny_network.batteries.copy())
        with pytest.raises(CheckError) as err:
            checker.on_advance(2.0, 3.0, rates, tiny_network.batteries.copy())
        assert err.value.invariant == "time"

    def test_missed_death_caught(self, tiny_network):
        checker = self._started(tiny_network, raising=False)
        rates = tiny_network.batteries / tiny_network.cycles
        # Drain far past every cycle: all sensors cross zero, but the
        # "engine" clamps silently and never reports a death.
        drained = np.zeros(tiny_network.n)
        checker.on_advance(0.0, 100.0, rates, drained)
        # The next event flushes the predicted-but-unreported deaths.
        checker.on_advance(100.0, 101.0, np.zeros(tiny_network.n), drained)
        assert "death" in {v.invariant for v in checker.violations}

    def test_phantom_death_caught(self, tiny_network):
        checker = self._started(tiny_network)
        with pytest.raises(CheckError) as err:
            checker.on_death(0, 1.0)  # nothing has drained yet
        assert err.value.invariant == "death"

    def test_partial_charge_caught(self, tiny_network):
        from repro.core.schedule import ChargingScheduling

        checker = self._started(tiny_network, raising=False)
        d0, d1 = (int(tiny_network.depot_index(0)),
                  int(tiny_network.depot_index(1)))
        sched = ChargingScheduling(time=0.0, tours=(
            Tour(depot=d0, order=(d0, 0)), Tour(depot=d1, order=(d1,))))
        energy = tiny_network.batteries.copy()
        energy[0] *= 0.9  # sensor 0 was "charged" to 90% only
        checker.on_dispatch(0.0, sched, energy)
        assert "full_charge" in {v.invariant for v in checker.violations}

    def test_tour_on_wrong_depot_caught(self, tiny_network):
        from repro.core.schedule import ChargingScheduling

        checker = self._started(tiny_network, raising=False)
        d0, d1 = (int(tiny_network.depot_index(0)),
                  int(tiny_network.depot_index(1)))
        swapped = ChargingScheduling(time=0.0, tours=(
            Tour(depot=d1, order=(d1,)), Tour(depot=d0, order=(d0,))))
        checker.on_dispatch(0.0, swapped, tiny_network.batteries.copy())
        assert "tours" in {v.invariant for v in checker.violations}
