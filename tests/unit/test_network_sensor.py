"""Unit tests for :mod:`repro.network.sensor` and depot/base station."""

import math

import pytest

from repro.errors import NetworkModelError
from repro.geometry.point import Point
from repro.network.depot import BaseStation, Depot
from repro.network.sensor import Sensor


class TestSensor:
    def test_rate_is_battery_over_cycle(self):
        s = Sensor(id=0, position=Point(0, 0), cycle=4.0, battery=2.0)
        assert s.rate == pytest.approx(0.5)

    def test_default_battery_is_unit(self):
        s = Sensor(id=0, position=Point(0, 0), cycle=10.0)
        assert s.battery == 1.0
        assert s.rate == pytest.approx(0.1)

    def test_lifetime_from(self):
        s = Sensor(id=0, position=Point(0, 0), cycle=10.0)
        assert s.lifetime_from(1.0) == pytest.approx(10.0)
        assert s.lifetime_from(0.5) == pytest.approx(5.0)
        assert s.lifetime_from(0.0) == 0.0
        assert s.lifetime_from(-1.0) == 0.0

    @pytest.mark.parametrize("cycle", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_cycle(self, cycle):
        with pytest.raises(NetworkModelError):
            Sensor(id=0, position=Point(0, 0), cycle=cycle)

    @pytest.mark.parametrize("battery", [0.0, -2.0, math.inf])
    def test_rejects_bad_battery(self, battery):
        with pytest.raises(NetworkModelError):
            Sensor(id=0, position=Point(0, 0), cycle=1.0, battery=battery)

    def test_rejects_negative_id(self):
        with pytest.raises(NetworkModelError):
            Sensor(id=-1, position=Point(0, 0), cycle=1.0)


class TestDepot:
    def test_fields(self):
        d = Depot(id=2, position=Point(5, 5))
        assert d.id == 2 and d.position == Point(5, 5)

    def test_rejects_negative_id(self):
        with pytest.raises(NetworkModelError):
            Depot(id=-1, position=Point(0, 0))


class TestBaseStation:
    def test_position(self):
        assert BaseStation(position=Point(500, 500)).position == Point(500, 500)
