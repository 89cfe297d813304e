"""Property-based tests for quantisation, Algorithm 3 and feasibility.

The headline property — **every plan Algorithm 3 emits keeps every sensor
alive** — is checked two independent ways: analytically (gap inspection)
and behaviourally (the exact-drain simulator observes zero deaths).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.feasibility import check_feasibility
from repro.core.mintotal import min_total_distance
from repro.core.quantize import quantize_cycles
from repro.geometry.bbox import Rect
from repro.geometry.point import Point
from repro.network.builder import NetworkBuilder
from repro.sim.engine import simulate
from repro.sim.policies import PlannedPolicy
from repro.sim.workload import FixedWorkload

cycles_strategy = st.lists(
    st.floats(0.5, 64.0, allow_nan=False, allow_infinity=False, width=32),
    min_size=1, max_size=50)


class TestQuantizeProperties:
    @given(cycles_strategy)
    @settings(max_examples=100, deadline=None)
    def test_half_open_sandwich(self, cycles):
        """Paper inequality (1): tau_i / 2 < tau'_i <= tau_i."""
        tau = np.asarray(cycles, dtype=np.float64)
        q = quantize_cycles(tau)
        assert np.all(q.assigned <= tau * (1 + 1e-9))
        assert np.all(q.assigned > tau / 2 * (1 - 1e-9))

    @given(cycles_strategy)
    @settings(max_examples=100, deadline=None)
    def test_assigned_cycles_nest(self, cycles):
        """All assigned cycles divide the largest one (power-of-two chain)."""
        q = quantize_cycles(np.asarray(cycles))
        ratios = q.block_cycle / q.assigned
        assert np.allclose(ratios, np.round(ratios))

    @given(cycles_strategy)
    @settings(max_examples=100, deadline=None)
    def test_classes_partition(self, cycles):
        q = quantize_cycles(np.asarray(cycles))
        total = sum(len(q.members(k)) for k in range(q.K + 1))
        assert total == len(cycles)

    @given(cycles_strategy, st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_due_pattern_is_periodic(self, cycles, j):
        q = quantize_cycles(np.asarray(cycles))
        jj = (j - 1) % q.block_size + 1
        due_j = set(q.sensors_due_at(jj).tolist())
        due_next_block = set(q.sensors_due_at(jj + q.block_size).tolist()
                             if jj + q.block_size <= 2 * q.block_size else [])
        if due_next_block:
            assert due_j == due_next_block


@st.composite
def small_networks(draw):
    n = draw(st.integers(2, 15))
    pts = draw(st.lists(
        st.tuples(st.floats(1, 999, allow_nan=False, width=32),
                  st.floats(1, 999, allow_nan=False, width=32)),
        min_size=n + 2, max_size=n + 2, unique=True))
    cycles = draw(st.lists(st.floats(1.0, 40.0, allow_nan=False, width=32),
                           min_size=n, max_size=n))
    sensor_pts = [Point(float(x), float(y)) for x, y in pts[:n]]
    depot_pts = [Point(float(x), float(y)) for x, y in pts[n:]]
    return (NetworkBuilder()
            .with_area(Rect.square(1000.0))
            .with_sensors_at(sensor_pts)
            .with_base_station_at_center()
            .with_depots_at(depot_pts)
            .with_cycles(cycles)
            .build())


class TestAlgorithm3Properties:
    @given(small_networks(), st.floats(5.0, 120.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_plan_always_feasible_analytically(self, net, horizon):
        res = min_total_distance(net, horizon)
        report = check_feasibility(res.plan, net.cycles)
        assert report.feasible, report.summary()

    @given(small_networks())
    @settings(max_examples=15, deadline=None)
    def test_plan_always_feasible_in_simulation(self, net):
        """Independent behavioural check with the exact-drain simulator."""
        res = min_total_distance(net, 80.0)
        out = simulate(net, PlannedPolicy(res.plan),
                       FixedWorkload.from_network(net), 80.0)
        assert out.metrics.perpetual, out.metrics.summary()

    @given(small_networks())
    @settings(max_examples=20, deadline=None)
    def test_lemma3_bound_is_below_any_feasible_cost(self, net):
        """LB <= OPT <= cost of any feasible solution — so the certificate
        must sit below Algorithm 3's cost on every instance."""
        from repro.core.bounds import lemma3_lower_bound

        horizon = 100.0
        res = min_total_distance(net, horizon)
        cost = res.plan.total_cost(net.dist)
        lb = lemma3_lower_bound(net, horizon)
        assert lb.bound <= cost + 1e-6

    @given(small_networks())
    @settings(max_examples=15, deadline=None)
    def test_every_sensor_charged_at_its_assigned_period(self, net):
        horizon = 70.0
        res = min_total_distance(net, horizon)
        assigned = res.quantization.assigned
        for i in range(net.n):
            times = res.plan.charge_times_of(i)
            expected = []
            t = assigned[i]
            while t < horizon:
                expected.append(t)
                t += assigned[i]
            np.testing.assert_allclose(times, expected, rtol=1e-9)
