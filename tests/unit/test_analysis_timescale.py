"""Unit tests for :mod:`repro.analysis.timescale`."""

import numpy as np
import pytest

from repro.analysis.timescale import validate_timescales
from repro.core.mintotal import min_total_distance
from repro.core.schedule import SchedulePlan
from repro.errors import ConfigError


class TestValidateTimescales:
    def test_fast_vehicle_separates(self, tiny_network):
        res = min_total_distance(tiny_network, horizon=16.0)
        report = validate_timescales(res.plan, tiny_network.coordinates,
                                     tiny_network.cycles, speed=1e6)
        assert report.separated
        assert report.max_ratio < 1e-3
        assert "holds" in report.summary()

    def test_slow_vehicle_strains(self, tiny_network):
        res = min_total_distance(tiny_network, horizon=16.0)
        report = validate_timescales(res.plan, tiny_network.coordinates,
                                     tiny_network.cycles, speed=1.0)
        assert not report.separated
        assert "STRAINED" in report.summary()

    def test_ratio_scales_inversely_with_speed(self, tiny_network):
        res = min_total_distance(tiny_network, horizon=16.0)
        r_fast = validate_timescales(res.plan, tiny_network.coordinates,
                                     tiny_network.cycles, speed=200.0)
        r_slow = validate_timescales(res.plan, tiny_network.coordinates,
                                     tiny_network.cycles, speed=100.0)
        assert r_slow.max_ratio == pytest.approx(2 * r_fast.max_ratio, rel=1e-9)

    def test_charge_time_adds_per_stop(self, tiny_network):
        res = min_total_distance(tiny_network, horizon=4.0)
        base = validate_timescales(res.plan, tiny_network.coordinates,
                                   tiny_network.cycles, speed=1e9)
        with_charge = validate_timescales(res.plan, tiny_network.coordinates,
                                          tiny_network.cycles, speed=1e9,
                                          charge_time=0.5)
        assert with_charge.max_ratio > base.max_ratio

    def test_deadline_is_tightest_charged_cycle(self, tiny_network):
        res = min_total_distance(tiny_network, horizon=16.0)
        report = validate_timescales(res.plan, tiny_network.coordinates,
                                     tiny_network.cycles, speed=100.0)
        # Every scheduling in the tiny network charges sensor 0 (tau = 1).
        assert np.all(report.deadlines == 1.0)

    def test_empty_plan(self, tiny_network):
        plan = SchedulePlan(horizon=10.0)
        report = validate_timescales(plan, tiny_network.coordinates,
                                     tiny_network.cycles, speed=10.0)
        assert report.max_ratio == 0.0
        assert "empty plan" in report.summary()

    @pytest.mark.parametrize("kwargs", [
        {"speed": 0.0}, {"speed": -1.0}, {"speed": 10.0, "charge_time": -1.0},
    ])
    def test_bad_params(self, tiny_network, kwargs):
        res = min_total_distance(tiny_network, horizon=4.0)
        with pytest.raises(ConfigError):
            validate_timescales(res.plan, tiny_network.coordinates,
                                tiny_network.cycles, **kwargs)

    def test_paper_scale_deployment_separates(self, paper_network_small):
        """At realistic numbers (km-scale field, vehicle ~20 km/h, cycles of
        weeks) the paper's assumption holds by orders of magnitude."""
        res = min_total_distance(paper_network_small, horizon=200.0)
        # Suppose 1 time unit = 1 day, cycles 1..50 days, vehicle does
        # 100 km/day: speed = 100_000 m per time unit.
        report = validate_timescales(res.plan, paper_network_small.coordinates,
                                     paper_network_small.cycles, speed=100_000.0)
        assert report.separated
