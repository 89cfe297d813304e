"""The :class:`SensorNetwork` instance type.

A ``SensorNetwork`` is the concrete realisation of the paper's weighted
complete graph ``G = (V ∪ R, E; w)``: ``n`` sensors, ``q`` depots, a base
station, and Euclidean edge weights. The node indexing convention used by
every algorithm in this library is:

* indices ``0 .. n-1``   — sensors (``sensor.id`` equals its index),
* indices ``n .. n+q-1`` — depots (depot ``l`` at index ``n + l``).

The network is stored as **columns**: the ``(n+q, 2)`` :attr:`coordinates`
array (sensors first, then depots) and the ``(n,)`` :attr:`cycles` and
:attr:`batteries` arrays, all read-only float64, plus the base station and
the area. These arrays are what the planner, the simulator and the
fingerprints read, and they are validated once, vectorised, at
construction. The per-node objects (:attr:`sensors`, :attr:`depots`) are
derived from the columns on first access for the few readers that want
them; nothing else builds them. A network pickles as its columns, base
station and area only, so shipping one to a worker process costs
``O(n)`` bytes whatever derived state was cached.

The full ``(n+q, n+q)`` distance matrix (the ``dist`` property) is built
lazily, on first access, and then cached. Planning does not touch it: the
staged planner (:func:`repro.plan.pipeline.plan_tours`) solves each q-rooted
MSF from :attr:`coordinates` (a Delaunay candidate graph, or a matrix over
the coverage set's own nodes) and refines each tour over a matrix of its own
nodes; tour lengths and service costs read the edges from the coordinates
too (see :func:`repro.geometry.distance.closed_tour_length`). So a plan,
cold or warm, a replan's repair step, the Lemma-3 bound and a simulation
never build the matrix; no module of the package reads it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from repro.errors import NetworkModelError
from repro.geometry.bbox import Rect
from repro.geometry.distance import distance_matrix
from repro.geometry.point import Point
from repro.network.depot import BaseStation, Depot
from repro.network.sensor import Sensor

__all__ = ["SensorNetwork"]

_DEFAULT_AREA = Rect.square(1000.0)

#: Cached values that depend on the geometry alone; copies that keep the
#: coordinates (:meth:`SensorNetwork.with_cycles`,
#: :meth:`SensorNetwork.with_batteries`) share them instead of recomputing.
_GEOMETRY_CACHE = ("geometry_fingerprint", "dist", "base_distances", "depots")


def _column(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """A contiguous read-only float64 array the caller cannot write through.

    An array that already is one is kept as is, so networks derived from
    one another share their columns.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.flags.writeable or not arr.flags.c_contiguous:
        arr = np.array(arr, order="C")
        arr.setflags(write=False)
    return arr


def _positive_finite(name: str, arr: np.ndarray) -> None:
    bad = ~(np.isfinite(arr) & (arr > 0))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise NetworkModelError(
            f"SensorNetwork: {name} must be positive and finite, "
            f"got {arr[i]} for sensor {i}")


@dataclass(frozen=True, eq=False)
class SensorNetwork:
    """An immutable WSN instance, stored as columns.

    Parameters
    ----------
    coordinates:
        ``(n+q, 2)`` node positions, the ``n`` sensors first and then the
        ``q`` depots (depot ``l`` at row ``n + l``). Must be finite.
    cycles:
        ``(n,)`` maximum charging cycles ``tau_i``; ``n`` is its length.
        Must be positive and finite.
    batteries:
        ``(n,)`` battery capacities ``B_i``. Must be positive and finite.
    base_station:
        The data sink (the linear cycle distribution's anchor).
    area:
        The deployment rectangle, kept for provenance and examples.

    At least one sensor and one depot are required. The arrays are stored
    read-only and C-contiguous (an argument that is not is copied first).
    Networks held as
    :class:`~repro.network.sensor.Sensor` objects go through
    :meth:`from_sensors`.
    """

    coordinates: np.ndarray
    cycles: np.ndarray
    batteries: np.ndarray
    base_station: BaseStation
    area: Rect = _DEFAULT_AREA

    def __post_init__(self) -> None:
        coordinates, cycles, batteries = (
            _column(self.coordinates), _column(self.cycles), _column(self.batteries))
        if cycles.ndim != 1 or cycles.size == 0:
            raise NetworkModelError("SensorNetwork: need at least one sensor")
        n = cycles.size
        if coordinates.ndim != 2 or coordinates.shape[1] != 2:
            raise NetworkModelError(
                f"SensorNetwork: coordinates must have shape (n+q, 2), "
                f"got {coordinates.shape}")
        if coordinates.shape[0] <= n:
            raise NetworkModelError("SensorNetwork: need at least one depot")
        if batteries.shape != (n,):
            raise NetworkModelError(
                f"SensorNetwork: expected {n} batteries, got shape {batteries.shape}")
        if not np.isfinite(coordinates).all():
            raise NetworkModelError("SensorNetwork: coordinates must be finite")
        _positive_finite("cycles", cycles)
        _positive_finite("batteries", batteries)
        object.__setattr__(self, "coordinates", coordinates)
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "batteries", batteries)

    def __reduce__(self):
        # Columns, base station and area only: never a cached matrix,
        # fingerprint or object tuple.
        return (type(self), (self.coordinates, self.cycles, self.batteries,
                             self.base_station, self.area))

    @classmethod
    def from_sensors(cls, sensors: Sequence[Sensor], depots: Sequence[Depot],
                     base_station: BaseStation,
                     area: Rect = _DEFAULT_AREA) -> "SensorNetwork":
        """Pack :class:`Sensor` and :class:`Depot` objects into columns.

        ``sensors[i].id`` must equal ``i`` and ``depots[l].id`` must equal
        ``l``.
        """
        for kind, nodes in (("sensors", sensors), ("depots", depots)):
            for i, node in enumerate(nodes):
                if node.id != i:
                    raise NetworkModelError(
                        f"SensorNetwork: {kind}[{i}] has id {node.id}; "
                        f"ids must be 0..{len(nodes) - 1} in order")
        coordinates = np.array(
            [(s.position.x, s.position.y) for s in sensors]
            + [(d.position.x, d.position.y) for d in depots],
            dtype=np.float64).reshape(-1, 2)
        return cls(coordinates=coordinates,
                   cycles=[s.cycle for s in sensors],
                   batteries=[s.battery for s in sensors],
                   base_station=base_station, area=area)

    # ------------------------------------------------------------------ sizes
    @property
    def n(self) -> int:
        """Number of sensors."""
        return self.cycles.shape[0]

    @property
    def q(self) -> int:
        """Number of depots (= number of mobile chargers)."""
        return self.coordinates.shape[0] - self.cycles.shape[0]

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

    # ------------------------------------------------------ derived objects
    @cached_property
    def sensors(self) -> tuple[Sensor, ...]:
        """The sensors as :class:`Sensor` objects, built from the columns."""
        return tuple(
            Sensor(id=i, position=Point(x, y), cycle=c, battery=b)
            for i, ((x, y), c, b) in enumerate(zip(
                self.coordinates[: self.n].tolist(), self.cycles.tolist(),
                self.batteries.tolist())))

    @cached_property
    def depots(self) -> tuple[Depot, ...]:
        """The depots as :class:`Depot` objects, built from the columns."""
        return tuple(Depot(id=l, position=Point(x, y))
                     for l, (x, y) in enumerate(self.coordinates[self.n:].tolist()))

    # ------------------------------------------------------------- geometry
    @cached_property
    def dist(self) -> np.ndarray:
        """Dense ``(n+q, n+q)`` Euclidean distance matrix (read-only).

        Built on first access, ``O((n+q)^2)`` time and memory, then cached.
        No module of the package reads it: planning, the adaptive patch step
        and the Lemma-3 bound measure from :attr:`coordinates` (``coords=``),
        which gives bit-identical forests, tours and lengths, and the
        ``repro check`` oracles build their own matrix. Only tests and the
        end-to-end benchmark still read it, so it can go once that
        benchmark measures with ``coords=``.
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
        h = hashlib.sha256()
        h.update(f"geom|n={self.n}|q={self.q}|".encode())
        h.update(self.coordinates.tobytes())
        return h.hexdigest()

    @cached_property
    def base_distances(self) -> np.ndarray:
        """``(n,)`` distances from each sensor to the base station."""
        bs = np.asarray(self.base_station.position.as_tuple(), dtype=np.float64)
        diff = self.coordinates[: self.n] - bs
        return np.sqrt((diff * diff).sum(axis=1))

    # ---------------------------------------------------------------- cycles
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

        Used when a workload redraws cycles. The copy shares this
        network's coordinate array and whatever it already computed from
        the geometry alone (fingerprint, distance matrix).
        """
        return self._with_columns("cycles", cycles)

    def with_batteries(self, batteries: Sequence[float] | np.ndarray
                       ) -> "SensorNetwork":
        """Copy of the network with battery capacities replaced; shares the
        geometry like :meth:`with_cycles`."""
        return self._with_columns("batteries", batteries)

    def _with_columns(self, name: str, values: Sequence[float] | np.ndarray
                      ) -> "SensorNetwork":
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != (self.n,):
            raise NetworkModelError(
                f"with_{name}: expected {self.n} {name}, got shape {arr.shape}")
        columns = {"cycles": self.cycles, "batteries": self.batteries, name: arr}
        copy = SensorNetwork(coordinates=self.coordinates,
                             base_station=self.base_station, area=self.area,
                             **columns)
        for key in _GEOMETRY_CACHE:
            if key in self.__dict__:
                copy.__dict__[key] = self.__dict__[key]
        return copy

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
