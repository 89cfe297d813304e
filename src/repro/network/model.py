"""The :class:`SensorNetwork` instance type.

A ``SensorNetwork`` is the concrete realisation of the paper's weighted
complete graph ``G = (V ∪ R, E; w)``: ``n`` sensors, ``q`` depots, a base
station, and Euclidean edge weights. The node indexing convention used by
every algorithm in this library is:

* indices ``0 .. n-1``   — sensors (``sensor.id`` equals its index),
* indices ``n .. n+q-1`` — depots (depot ``l`` at index ``n + l``).

The full ``(n+q, n+q)`` distance matrix :attr:`SensorNetwork.dist` is built
lazily, on first access, and then cached. Planning does not touch it: the
staged planner (:func:`repro.plan.pipeline.plan_tours`) solves each q-rooted
MSF from :attr:`coordinates` (a Delaunay candidate graph, or a matrix over
the coverage set's own nodes) and refines each tour over a matrix of its own
nodes; tour lengths and service costs read the edges from the coordinates
too (see :func:`repro.geometry.distance.closed_tour_length`). So a plan,
cold or warm, and a simulation never build the matrix. See
:attr:`SensorNetwork.dist` for the callers that still do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from repro.errors import NetworkModelError
from repro.geometry.bbox import Rect
from repro.geometry.distance import distance_matrix
from repro.geometry.point import points_to_array
from repro.network.depot import BaseStation, Depot
from repro.network.sensor import Sensor

__all__ = ["SensorNetwork"]


@dataclass(frozen=True)
class SensorNetwork:
    """An immutable WSN instance.

    Parameters
    ----------
    sensors:
        The sensors; ``sensors[i].id`` must equal ``i``.
    depots:
        The charger depots; ``depots[l].id`` must equal ``l``. At least one.
    base_station:
        The data sink (used by cycle distributions and the routing model).
    area:
        The deployment rectangle, kept for provenance and examples.
    """

    sensors: tuple[Sensor, ...]
    depots: tuple[Depot, ...]
    base_station: BaseStation
    area: Rect = field(default_factory=lambda: Rect.square(1000.0))

    def __post_init__(self) -> None:
        if not self.sensors:
            raise NetworkModelError("SensorNetwork: need at least one sensor")
        if not self.depots:
            raise NetworkModelError("SensorNetwork: need at least one depot")
        for i, s in enumerate(self.sensors):
            if s.id != i:
                raise NetworkModelError(
                    f"SensorNetwork: sensors[{i}] has id {s.id}; ids must be 0..n-1 in order")
        for l, d in enumerate(self.depots):
            if d.id != l:
                raise NetworkModelError(
                    f"SensorNetwork: depots[{l}] has id {d.id}; ids must be 0..q-1 in order")

    # ------------------------------------------------------------------ sizes
    @property
    def n(self) -> int:
        """Number of sensors."""
        return len(self.sensors)

    @property
    def q(self) -> int:
        """Number of depots (= number of mobile chargers)."""
        return len(self.depots)

    @property
    def n_nodes(self) -> int:
        """Total node count ``n + q`` of the metric graph."""
        return self.n + self.q

    # ------------------------------------------------------------ index maps
    def depot_index(self, l: int) -> int:
        """Graph index of depot ``l`` (``n + l``)."""
        if not (0 <= l < self.q):
            raise NetworkModelError(f"depot_index: depot {l} out of range (q={self.q})")
        return self.n + l

    @property
    def depot_indices(self) -> np.ndarray:
        """Graph indices of all depots, ``[n, n+1, ..., n+q-1]``."""
        return np.arange(self.n, self.n + self.q, dtype=np.intp)

    @property
    def sensor_indices(self) -> np.ndarray:
        """Graph indices of all sensors, ``[0, ..., n-1]``."""
        return np.arange(self.n, dtype=np.intp)

    def is_depot(self, node: int) -> bool:
        """Whether graph index ``node`` refers to a depot."""
        return self.n <= node < self.n_nodes

    def membership_mask(self, offline: Iterable[int] = ()) -> np.ndarray:
        """``(n,)`` boolean alive/offline mask over the sensors.

        The network itself is immutable — the static-vs-dynamic contract
        is that membership is an *overlay*: geometry, distances and
        batteries never change mid-run, while the simulator
        (:class:`~repro.sim.state.EnergyState`) flips this mask as churn
        events fire. This helper materialises the overlay's initial value:
        all sensors online except the given ``offline`` ids.
        """
        mask = np.ones(self.n, dtype=bool)
        for s in offline:
            i = int(s)
            if not 0 <= i < self.n:
                raise NetworkModelError(
                    f"membership_mask: sensor {i} out of range 0..{self.n - 1}")
            mask[i] = False
        return mask

    # ------------------------------------------------------------- geometry
    @cached_property
    def coordinates(self) -> np.ndarray:
        """``(n+q, 2)`` coordinates, sensors first then depots."""
        pts = [s.position for s in self.sensors] + [d.position for d in self.depots]
        return points_to_array(pts)

    @cached_property
    def dist(self) -> np.ndarray:
        """Dense ``(n+q, n+q)`` Euclidean distance matrix (read-only).

        Built on first access, ``O((n+q)^2)`` time and memory, then cached.
        The remaining users are the adaptive patch step
        (:mod:`repro.adaptive.patch`), the baselines
        (:mod:`repro.baselines`), the Lemma-3 bound (:mod:`repro.core.bounds`),
        the routing energy model (:mod:`repro.network.routing`), the
        timescale analysis behind ``repro simulate --speed``
        (:mod:`repro.analysis.timescale`) and the ``repro check`` oracles.
        Planning and measuring pass :attr:`coordinates` as ``coords=``
        instead, which gives bit-identical forests, tours and lengths.
        """
        d = distance_matrix(self.coordinates)
        d.setflags(write=False)
        return d

    @cached_property
    def geometry_fingerprint(self) -> str:
        """Content hash of the metric geometry (coordinates + node roles).

        Two networks share a fingerprint iff they have the same sensor and
        depot positions in the same order — i.e. iff every q-rooted
        subproblem over a given sensor set has the same answer. Cycles,
        batteries and rates are deliberately *excluded*: tours depend on
        them only through the coverage set, which the plan-artifact cache
        keys separately (see :mod:`repro.plan.cache`).
        """
        import hashlib

        h = hashlib.sha256()
        h.update(f"geom|n={self.n}|q={self.q}|".encode())
        h.update(np.ascontiguousarray(self.coordinates, dtype=np.float64).tobytes())
        return h.hexdigest()

    @cached_property
    def base_distances(self) -> np.ndarray:
        """``(n,)`` distances from each sensor to the base station."""
        bs = np.asarray(self.base_station.position.as_tuple(), dtype=np.float64)
        diff = self.coordinates[: self.n] - bs
        return np.sqrt((diff * diff).sum(axis=1))

    # ---------------------------------------------------------------- cycles
    @cached_property
    def cycles(self) -> np.ndarray:
        """``(n,)`` array of nominal maximum charging cycles ``tau_i``."""
        arr = np.asarray([s.cycle for s in self.sensors], dtype=np.float64)
        arr.setflags(write=False)
        return arr

    @cached_property
    def batteries(self) -> np.ndarray:
        """``(n,)`` array of battery capacities ``B_i``."""
        arr = np.asarray([s.battery for s in self.sensors], dtype=np.float64)
        arr.setflags(write=False)
        return arr

    @cached_property
    def rates(self) -> np.ndarray:
        """``(n,)`` nominal energy-consumption rates ``rho_i = B_i / tau_i``."""
        arr = self.batteries / self.cycles
        arr.setflags(write=False)
        return arr

    @property
    def tau_min(self) -> float:
        """Smallest maximum charging cycle in the network."""
        return float(self.cycles.min())

    @property
    def tau_max(self) -> float:
        """Largest maximum charging cycle in the network."""
        return float(self.cycles.max())

    # ------------------------------------------------------------- mutation
    def with_cycles(self, cycles: Sequence[float] | np.ndarray) -> "SensorNetwork":
        """Copy of the network with sensor cycles replaced.

        Geometry (and therefore the cached distance matrix of the *new*
        object) is unchanged; used when a workload redraws cycles.
        """
        arr = np.asarray(cycles, dtype=np.float64)
        if arr.shape != (self.n,):
            raise NetworkModelError(
                f"with_cycles: expected {self.n} cycles, got shape {arr.shape}")
        sensors = tuple(s.with_cycle(float(c)) for s, c in zip(self.sensors, arr))
        return SensorNetwork(sensors=sensors, depots=self.depots,
                             base_station=self.base_station, area=self.area)

    def induced_nodes(self, sensor_ids: Iterable[int],
                      *, include_depots: bool = True) -> np.ndarray:
        """Graph-index array for the induced subproblem over ``sensor_ids``.

        The q-rooted algorithms operate on induced subgraphs
        ``G[V^c ∪ R]``; this helper produces the (sorted, de-duplicated)
        index set with depots appended, ready to slice :attr:`dist`.
        """
        ids = np.unique(np.fromiter(sensor_ids, dtype=np.intp))
        if ids.size and (ids[0] < 0 or ids[-1] >= self.n):
            raise NetworkModelError(
                f"induced_nodes: sensor ids out of range 0..{self.n - 1}")
        if include_depots:
            return np.concatenate([ids, self.depot_indices])
        return ids
