"""Shared fixtures.

Small, fast instances for unit tests; medium paper-like instances (session
scoped, built once) for integration tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.bbox import Rect
from repro.geometry.point import Point
from repro.network.builder import NetworkBuilder, build_paper_network
from repro.network.cycles import LinearCycleDistribution


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_network():
    """Deterministic 6-sensor / 2-depot network with hand-picked cycles.

    Geometry (100 x 100 area)::

        s0(10,10)  s1(20,10)  s2(90,90)  s3(80,90)  s4(50,50)  s5(10,90)
        d0 = base station at (50, 50) offset -> (45, 50); d1 at (85, 85)

    Cycles: [1, 2, 4, 8, 2, 4] — exact powers of two for crisp class maths.
    """
    sensors = [Point(10, 10), Point(20, 10), Point(90, 90),
               Point(80, 90), Point(50, 50), Point(10, 90)]
    return (NetworkBuilder()
            .with_area(Rect.square(100.0))
            .with_sensors_at(sensors)
            .with_base_station_at(Point(50, 50))
            .with_depots_at([Point(45, 50), Point(85, 85)])
            .with_cycles([1.0, 2.0, 4.0, 8.0, 2.0, 4.0])
            .build())


@pytest.fixture(scope="session")
def paper_network_small():
    """One 60-sensor paper-style topology (session-cached for speed)."""
    return build_paper_network(n=60, q=5, seed=2014)


@pytest.fixture(scope="session")
def paper_network_random_cycles():
    """60-sensor topology with the random cycle distribution."""
    from repro.network.cycles import RandomCycleDistribution

    return build_paper_network(
        n=60, q=5, distribution=RandomCycleDistribution(), seed=2014)


@pytest.fixture
def linear_distribution() -> LinearCycleDistribution:
    return LinearCycleDistribution(tau_min=1.0, tau_max=50.0, sigma=2.0)


@pytest.fixture(scope="session")
def mixed_serve_load():
    """48 wire requests over 8 small geometries: plans with a 50 ms
    synthetic service time, every 6th request a ``health`` fan-out.

    Each plan has its own horizon, so no request is answered from the
    response cache and every plan keeps a worker busy.
    """
    from repro.io.network_json import network_to_dict

    nets = [network_to_dict(build_paper_network(n=16, q=2, seed=s))
            for s in range(60, 68)]
    return [("health", {}) if i % 6 == 5 else
            ("plan", {"network": nets[i % 8], "horizon": 200.0 + i,
                      "delay": 0.05})
            for i in range(48)]
