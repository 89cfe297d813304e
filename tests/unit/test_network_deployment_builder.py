"""Unit tests for :mod:`repro.network.deployment` and :mod:`repro.network.builder`."""

import numpy as np
import pytest

from repro.errors import NetworkModelError
from repro.geometry.bbox import Rect
from repro.geometry.point import Point
from repro.network.builder import NetworkBuilder, build_paper_network
from repro.network.cycles import LinearCycleDistribution
from repro.network.deployment import deploy_sensors, place_depots
from repro.network.depot import BaseStation


class TestDeployment:
    def test_deploy_inside_area(self):
        area = Rect.square(100.0)
        pts = deploy_sensors(50, area, rng=1)
        assert len(pts) == 50
        assert all(area.contains(p) for p in pts)

    def test_deploy_rejects_zero(self):
        with pytest.raises(NetworkModelError):
            deploy_sensors(0, Rect.square(1.0))

    def test_depot0_colocated_with_base(self):
        area = Rect.square(100.0)
        bs = BaseStation(Point(50, 50))
        depots = place_depots(5, area, bs, rng=1)
        assert len(depots) == 5
        assert depots[0].position == bs.position
        assert [d.id for d in depots] == [0, 1, 2, 3, 4]

    def test_no_colocation_option(self):
        area = Rect.square(100.0)
        bs = BaseStation(Point(50, 50))
        rng = np.random.default_rng(99)
        depots = place_depots(3, area, bs, rng, colocate_first=False)
        assert len(depots) == 3
        # With a continuous sampler, exact colocation has probability 0.
        assert depots[0].position != bs.position

    def test_deterministic(self):
        area = Rect.square(100.0)
        bs = BaseStation(Point(50, 50))
        a = place_depots(4, area, bs, rng=5)
        b = place_depots(4, area, bs, rng=5)
        assert [d.position for d in a] == [d.position for d in b]


class TestNetworkBuilder:
    def test_full_build(self):
        net = (NetworkBuilder()
               .with_area(Rect.square(100.0))
               .with_random_sensors(20, seed=1)
               .with_base_station_at_center()
               .with_random_depots(3, seed=2)
               .with_cycles_from(LinearCycleDistribution(), seed=3)
               .build())
        assert (net.n, net.q) == (20, 3)
        assert net.base_station.position == Point(50, 50)

    def test_explicit_everything(self):
        net = (NetworkBuilder()
               .with_area(Rect.square(10.0))
               .with_sensors_at([Point(1, 1), Point(2, 2)])
               .with_base_station_at(Point(0, 0))
               .with_depots_at([Point(5, 5)])
               .with_cycles([3.0, 4.0])
               .with_batteries(2.0)
               .build())
        np.testing.assert_array_equal(net.cycles, [3, 4])
        np.testing.assert_array_equal(net.batteries, [2, 2])

    def test_build_without_sensors_raises(self):
        with pytest.raises(NetworkModelError, match="sensors"):
            NetworkBuilder().with_depots_at([Point(0, 0)]).build()

    def test_build_without_cycles_raises(self):
        with pytest.raises(NetworkModelError, match="cycles"):
            (NetworkBuilder().with_sensors_at([Point(1, 1)])
             .with_depots_at([Point(0, 0)]).build())

    def test_cycle_count_mismatch_raises(self):
        with pytest.raises(NetworkModelError):
            (NetworkBuilder().with_sensors_at([Point(1, 1), Point(2, 2)])
             .with_depots_at([Point(0, 0)]).with_cycles([1.0]).build())


class TestBuildPaperNetwork:
    def test_defaults(self):
        net = build_paper_network(n=30, q=5, seed=0)
        assert (net.n, net.q) == (30, 5)
        assert net.area.width == 1000.0
        # Depot 0 on the base station (the paper's setup).
        assert net.depots[0].position == net.base_station.position

    def test_seed_reproducibility(self):
        a = build_paper_network(n=25, q=4, seed=11)
        b = build_paper_network(n=25, q=4, seed=11)
        np.testing.assert_array_equal(a.coordinates, b.coordinates)
        np.testing.assert_array_equal(a.cycles, b.cycles)

    def test_different_seeds_differ(self):
        a = build_paper_network(n=25, q=4, seed=11)
        b = build_paper_network(n=25, q=4, seed=12)
        assert not np.array_equal(a.coordinates, b.coordinates)
