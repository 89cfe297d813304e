"""Property-based round-trip tests for the serialisation layer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mintotal import min_total_distance
from repro.core.schedule import ChargingScheduling, SchedulePlan
from repro.geometry.bbox import Rect
from repro.geometry.point import Point
from repro.io.network_json import network_from_dict, network_to_dict
from repro.io.plan_json import plan_from_dict, plan_to_dict
from repro.network.builder import NetworkBuilder
from repro.tsp.tour import Tour


@st.composite
def networks(draw):
    n = draw(st.integers(1, 12))
    q = draw(st.integers(1, 3))
    pts = draw(st.lists(
        st.tuples(st.floats(0, 1000, allow_nan=False, width=32),
                  st.floats(0, 1000, allow_nan=False, width=32)),
        min_size=n + q, max_size=n + q, unique=True))
    cycles = draw(st.lists(st.floats(0.5, 60.0, allow_nan=False, width=32),
                           min_size=n, max_size=n))
    batteries = draw(st.floats(0.5, 4.0, allow_nan=False, width=32))
    return (NetworkBuilder()
            .with_area(Rect.square(1000.0))
            .with_sensors_at([Point(float(x), float(y)) for x, y in pts[:n]])
            .with_base_station_at_center()
            .with_depots_at([Point(float(x), float(y)) for x, y in pts[n:]])
            .with_cycles(cycles)
            .with_batteries(float(batteries))
            .build())


class TestNetworkRoundTrip:
    @given(networks())
    @settings(max_examples=40, deadline=None)
    def test_exact_round_trip(self, net):
        loaded = network_from_dict(network_to_dict(net))
        np.testing.assert_array_equal(loaded.coordinates, net.coordinates)
        np.testing.assert_array_equal(loaded.cycles, net.cycles)
        np.testing.assert_array_equal(loaded.batteries, net.batteries)
        assert loaded.area == net.area
        assert loaded.base_station.position == net.base_station.position

    @given(networks())
    @settings(max_examples=20, deadline=None)
    def test_round_trip_preserves_planning(self, net):
        """The plan built from a reloaded network is identical: geometry and
        cycles round-trip at full precision."""
        loaded = network_from_dict(network_to_dict(net))
        a = min_total_distance(net, 40.0)
        b = min_total_distance(loaded, 40.0)
        assert a.plan.total_cost(net.dist) == b.plan.total_cost(loaded.dist)
        assert len(a.plan) == len(b.plan)


@st.composite
def plans(draw):
    net = draw(networks())
    horizon = draw(st.floats(5.0, 60.0, allow_nan=False, width=32))
    return net, min_total_distance(net, float(horizon)).plan


class TestPlanRoundTrip:
    @given(plans())
    @settings(max_examples=25, deadline=None)
    def test_semantics_preserved(self, net_plan):
        net, plan = net_plan
        loaded = plan_from_dict(plan_to_dict(plan))
        assert loaded.horizon == plan.horizon
        np.testing.assert_array_equal(loaded.times, plan.times)
        assert loaded.total_cost(net.dist) == plan.total_cost(net.dist)
        for i in range(net.n):
            assert loaded.charge_times_of(i) == plan.charge_times_of(i)

    @given(st.integers(0, 5))
    @settings(max_examples=6, deadline=None)
    def test_handcrafted_plan_round_trip(self, k):
        tours = (Tour(depot=10, order=(10, 0, 1)), Tour.empty(11))
        scheds = tuple(ChargingScheduling(time=float(j + 1), tours=tours)
                       for j in range(k))
        plan = SchedulePlan.from_schedulings(scheds, horizon=float(k + 2))
        loaded = plan_from_dict(plan_to_dict(plan))
        assert len(loaded) == k
        if k >= 2:
            assert loaded[0].tours is loaded[1].tours  # sharing restored
