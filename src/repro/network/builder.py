"""Network construction: fluent builder and one-call paper defaults."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import NetworkModelError
from repro.geometry.bbox import Rect
from repro.geometry.point import Point, points_to_array
from repro.geometry.rng import make_rng
from repro.network.cycles import CycleDistribution, LinearCycleDistribution
from repro.network.deployment import (
    deploy_clustered,
    deploy_grid,
    deploy_sensors,
    place_depots,
)
from repro.network.depot import BaseStation, Depot
from repro.network.model import SensorNetwork

__all__ = ["NetworkBuilder", "build_paper_network"]


@dataclass
class NetworkBuilder:
    """Step-by-step construction of a :class:`SensorNetwork`.

    Example
    -------
    >>> net = (NetworkBuilder()
    ...        .with_area(Rect.square(1000.0))
    ...        .with_random_sensors(200, seed=7)
    ...        .with_base_station_at_center()
    ...        .with_random_depots(5, seed=7)
    ...        .with_cycles_from(LinearCycleDistribution(), seed=7)
    ...        .build())
    >>> net.n, net.q
    (200, 5)
    """

    area: Rect = field(default_factory=lambda: Rect.square(1000.0))
    _sensor_positions: list[Point] = field(default_factory=list)
    _depots: list[Depot] = field(default_factory=list)
    _base: BaseStation | None = None
    _cycles: np.ndarray | None = None
    _batteries: np.ndarray | float = 1.0

    # ------------------------------------------------------------------ area
    def with_area(self, area: Rect) -> "NetworkBuilder":
        """Set the deployment rectangle (before placing anything)."""
        self.area = area
        return self

    # --------------------------------------------------------------- sensors
    def with_sensors_at(self, positions: list[Point]) -> "NetworkBuilder":
        """Place sensors at explicit positions."""
        self._sensor_positions = list(positions)
        return self

    def with_random_sensors(self, n: int,
                            seed: int | np.random.Generator | None = None
                            ) -> "NetworkBuilder":
        """Place ``n`` sensors uniformly at random in the area."""
        self._sensor_positions = deploy_sensors(n, self.area, make_rng(seed))
        return self

    # ---------------------------------------------------------- base station
    def with_base_station_at(self, position: Point) -> "NetworkBuilder":
        self._base = BaseStation(position=position)
        return self

    def with_base_station_at_center(self) -> "NetworkBuilder":
        """The paper's choice: sink at the centre of the area."""
        self._base = BaseStation(position=self.area.center)
        return self

    # ---------------------------------------------------------------- depots
    def with_depots_at(self, positions: list[Point]) -> "NetworkBuilder":
        self._depots = [Depot(id=i, position=p) for i, p in enumerate(positions)]
        return self

    def with_random_depots(self, q: int,
                           seed: int | np.random.Generator | None = None,
                           *, colocate_first: bool = True) -> "NetworkBuilder":
        """Place ``q`` depots; by default depot 0 sits on the base station."""
        if self._base is None:
            self.with_base_station_at_center()
        assert self._base is not None
        self._depots = place_depots(q, self.area, self._base, make_rng(seed),
                                    colocate_first=colocate_first)
        return self

    # ---------------------------------------------------------------- cycles
    def with_cycles(self, cycles) -> "NetworkBuilder":
        """Set explicit maximum charging cycles (one per sensor)."""
        self._cycles = np.asarray(cycles, dtype=np.float64)
        return self

    def with_cycles_from(self, distribution: CycleDistribution,
                         seed: int | np.random.Generator | None = None
                         ) -> "NetworkBuilder":
        """Sample cycles from a distribution over the current geometry."""
        if not self._sensor_positions:
            raise NetworkModelError("with_cycles_from: place sensors first")
        if self._base is None:
            self.with_base_station_at_center()
        assert self._base is not None
        coords = points_to_array(self._sensor_positions)
        bs = np.asarray(self._base.position.as_tuple())
        d = np.sqrt(((coords - bs) ** 2).sum(axis=1))
        self._cycles = distribution.sample(d, make_rng(seed))
        return self

    def with_batteries(self, batteries) -> "NetworkBuilder":
        """Set battery capacities (scalar or per-sensor)."""
        self._batteries = (float(batteries) if np.isscalar(batteries)
                           else np.asarray(batteries, dtype=np.float64))
        return self

    # ----------------------------------------------------------------- build
    def build(self) -> SensorNetwork:
        """Assemble and validate the network."""
        if not self._sensor_positions:
            raise NetworkModelError("NetworkBuilder: no sensors placed")
        if not self._depots:
            raise NetworkModelError("NetworkBuilder: no depots placed")
        if self._base is None:
            self.with_base_station_at_center()
        assert self._base is not None
        n = len(self._sensor_positions)
        if self._cycles is None:
            raise NetworkModelError("NetworkBuilder: no cycles set")
        if self._cycles.shape != (n,):
            raise NetworkModelError(
                f"NetworkBuilder: {self._cycles.shape[0]} cycles for {n} sensors")
        positions = self._sensor_positions + [d.position for d in self._depots]
        return SensorNetwork(
            coordinates=points_to_array(positions), cycles=self._cycles,
            batteries=np.broadcast_to(
                np.asarray(self._batteries, dtype=np.float64), (n,)),
            base_station=self._base, area=self.area)


def build_paper_network(n: int = 200, q: int = 5,
                        distribution: CycleDistribution | None = None,
                        seed: int | np.random.Generator | None = None,
                        *, side: float = 1000.0,
                        deployment: str = "uniform") -> SensorNetwork:
    """One random topology with the paper's Section VII defaults.

    ``n`` sensors in a ``side x side`` square, base station at the centre,
    ``q`` depots with depot 0 on the base station, cycles from
    ``distribution`` (linear with ``tau = [1, 50], sigma = 2`` when omitted).
    A single ``seed`` drives deployment, depots and cycles through spawned
    independent substreams, so one integer reproduces the whole topology.

    Parameters
    ----------
    deployment:
        ``"uniform"`` (the paper's), ``"clustered"`` (Gaussian hotspots) or
        ``"grid"`` (jittered lattice) — see :mod:`repro.network.deployment`.
    """
    rng = make_rng(seed)
    sub = rng.spawn(3) if hasattr(rng, "spawn") else [rng, rng, rng]
    dist = distribution if distribution is not None else LinearCycleDistribution()
    area = Rect.square(side)
    if deployment == "uniform":
        positions = deploy_sensors(n, area, sub[0])
    elif deployment == "clustered":
        positions = deploy_clustered(n, area, rng=sub[0])
    elif deployment == "grid":
        positions = deploy_grid(n, area, jitter=0.25, rng=sub[0])
    else:
        raise NetworkModelError(
            f"unknown deployment {deployment!r}; "
            f"use 'uniform', 'clustered' or 'grid'")
    return (NetworkBuilder()
            .with_area(area)
            .with_sensors_at(positions)
            .with_base_station_at_center()
            .with_random_depots(q, sub[1])
            .with_cycles_from(dist, sub[2])
            .build())
