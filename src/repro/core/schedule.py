"""Charging schedulings and plans — the solution data model.

A *charging scheduling* is the paper's 2-tuple ``(C_j, t_j)``: at time
``t_j`` every mobile charger ``l`` drives closed tour ``C_{j,l}`` and fully
charges every sensor it visits. A *plan* is the ordered series of
schedulings covering the monitoring period.

Algorithm 3 computes at most ``K + 1`` distinct tour sets and repeats them
across the period, so a plan is stored as its dispatch table: a table of
``tour_sets`` plus, per dispatch, a time and a ref (an index into the
table). This is also the JSON wire form (:mod:`repro.io.plan_json`). Per-set
work — costing, validation, the charged-sensor sets — happens once per
table entry; iterating a plan yields one :class:`ChargingScheduling` per
dispatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ScheduleError
from repro.rooted.qtsp import tours_total_cost
from repro.tsp.tour import Tour

__all__ = ["ChargingScheduling", "SchedulePlan"]


def _check_tours(tours: tuple[Tour, ...]) -> None:
    """A tour set is non-empty and has at most one tour per depot."""
    if not tours:
        raise ScheduleError("scheduling must contain at least one tour")
    depots = [t.depot for t in tours]
    if len(set(depots)) != len(depots):
        raise ScheduleError(f"scheduling has two tours on one depot: {depots}")


def _charged(tours: tuple[Tour, ...]) -> frozenset[int]:
    """All non-depot nodes the tours visit."""
    nodes: set[int] = set().union(*(t.order for t in tours))
    return frozenset(nodes.difference(t.depot for t in tours))


@dataclass(frozen=True)
class ChargingScheduling:
    """One dispatch of the ``q`` mobile chargers: ``(C_j, t_j)``.

    Parameters
    ----------
    time:
        Dispatch time ``t_j`` (charging is instantaneous per the paper's
        timescale-separation assumption).
    tours:
        One closed tour per charger, in depot order. Empty tours (charger
        stays home) are allowed and cost nothing.
    """

    time: float
    tours: tuple[Tour, ...]

    def __post_init__(self) -> None:
        if not math.isfinite(self.time) or self.time < 0:
            raise ScheduleError(f"scheduling time must be finite and >= 0, got {self.time}")
        _check_tours(self.tours)

    @property
    def q(self) -> int:
        """Number of chargers dispatched (including stay-at-home ones)."""
        return len(self.tours)

    @cached_property
    def charged_sensors(self) -> frozenset[int]:
        """All non-depot nodes visited — the sensors charged at this time."""
        return _charged(self.tours)

    def cost(self, dist: np.ndarray | None = None, *,
             coords: np.ndarray | None = None) -> float:
        """Total tour length of this scheduling, under a distance matrix or
        node ``coords=`` (see :meth:`~repro.tsp.tour.Tour.cost`)."""
        return tours_total_cost(dist, self.tours, coords=coords)


@dataclass(frozen=True, eq=False)
class SchedulePlan:
    """A series of charging schedulings over a monitoring period, stored
    as its dispatch table.

    Parameters
    ----------
    horizon:
        The monitoring period ``T``; all dispatch times lie in ``[0, T)``.
    tour_sets:
        The tour-set table. Planners and :meth:`from_schedulings` emit it
        in first-reference order with no two entries equal by value.
    times, refs:
        Per dispatch: its time (strictly increasing) and the index of its
        tour set. Stored as read-only ``float64`` / ``intp`` arrays.

    Each tour set is validated once, the times and refs vectorised. Plans
    compare equal when all four fields are equal by value.
    """

    horizon: float
    tour_sets: tuple[tuple[Tour, ...], ...] = ()
    times: np.ndarray | Sequence[float] = ()
    refs: np.ndarray | Sequence[int] = ()

    def __post_init__(self) -> None:
        if self.horizon <= 0 or not math.isfinite(self.horizon):
            raise ScheduleError(f"horizon must be positive and finite, got {self.horizon}")
        tour_sets = tuple(tuple(tours) for tours in self.tour_sets)
        for tours in tour_sets:
            _check_tours(tours)
        times, refs = np.array(self.times, dtype=np.float64), np.asarray(self.refs)
        if refs.size and refs.dtype.kind not in "iu":
            raise ScheduleError(f"plan refs must be integers, got dtype {refs.dtype}")
        refs = refs.astype(np.intp)
        if times.ndim != 1 or refs.shape != times.shape:
            raise ScheduleError(f"plan needs one ref per dispatch time: "
                                f"{times.shape} times, {refs.shape} refs")
        bad = np.flatnonzero(~np.isfinite(times) | (times < 0))
        if bad.size:
            raise ScheduleError(
                f"scheduling time must be finite and >= 0, got {times[bad[0]]}")
        i = np.flatnonzero(np.diff(times) <= 0)
        if i.size:
            raise ScheduleError(f"scheduling times not strictly increasing: "
                                f"{times[i[0]]} then {times[i[0] + 1]}")
        if times.size and times[-1] >= self.horizon:
            raise ScheduleError(
                f"scheduling at t={times[-1]} is not before the horizon {self.horizon}")
        if refs.size and not 0 <= refs.min() <= refs.max() < len(tour_sets):
            raise ScheduleError(f"plan ref out of range: refs span {refs.min()}.."
                                f"{refs.max()}, the table has {len(tour_sets)} tour sets")
        times.setflags(write=False)
        refs.setflags(write=False)
        object.__setattr__(self, "tour_sets", tour_sets)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "refs", refs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SchedulePlan):
            return NotImplemented
        return (self.horizon == other.horizon and self.tour_sets == other.tour_sets
                and np.array_equal(self.times, other.times)
                and np.array_equal(self.refs, other.refs))

    # ------------------------------------------------------------- iteration
    def __len__(self) -> int:
        return self.times.shape[0]

    def __iter__(self) -> Iterator[ChargingScheduling]:
        for t, r in zip(self.times.tolist(), self.refs.tolist()):
            yield ChargingScheduling(time=t, tours=self.tour_sets[r])

    def __getitem__(self, i: int) -> ChargingScheduling:
        return ChargingScheduling(time=float(self.times[i]),
                                  tours=self.tour_sets[self.refs[i]])

    @cached_property
    def charged_sets(self) -> tuple[frozenset[int], ...]:
        """The sensors each table entry charges, aligned with ``tour_sets``."""
        return tuple(_charged(tours) for tours in self.tour_sets)

    # ----------------------------------------------------------------- costs
    def total_cost(self, dist: np.ndarray | None = None, *,
                   coords: np.ndarray | None = None) -> float:
        """The service cost: sum of all tour lengths over the plan.

        Tours are measured under the distance matrix ``dist`` or, with
        ``coords=``, from node coordinates, bit-identically and without
        building the matrix. Each table entry is costed once; the entry
        costs are then added one per dispatch, left to right, so the sum
        rounds exactly as a per-dispatch loop does.
        """
        entry_cost = [tours_total_cost(dist, tours, coords=coords)
                      for tours in self.tour_sets]
        total = 0.0
        for r in self.refs.tolist():
            total += entry_cost[r]
        return total

    # -------------------------------------------------------------- queries
    def charge_times_of(self, sensor: int) -> list[float]:
        """All times at which ``sensor`` gets charged, in order."""
        hit = [sensor in charged for charged in self.charged_sets]
        return [t for t, r in zip(self.times.tolist(), self.refs.tolist()) if hit[r]]

    def sensors_covered(self) -> frozenset[int]:
        """Every sensor charged at least once by the plan."""
        return frozenset().union(
            *(self.charged_sets[r] for r in np.unique(self.refs).tolist()))

    def validate_for(self, network) -> None:
        """Raise :class:`ScheduleError` unless this plan is well-formed for
        ``network``: every tour's depot is one of the network's depots, and
        every charged node is a sensor of the network.

        Guards the serialisation workflow — replaying a plan against the
        wrong network file would otherwise fail late (or worse, charge the
        wrong indices silently when sizes happen to align). Each referenced
        table entry is checked once, in order of its first dispatch, so an
        error names the earliest offending dispatch time.
        """
        n, n_nodes = network.n, network.n_nodes
        seen: set[int] = set()
        for time, r in zip(self.times.tolist(), self.refs.tolist()):
            if r in seen:
                continue
            seen.add(r)
            for tour in self.tour_sets[r]:
                if not network.is_depot(tour.depot):
                    raise ScheduleError(
                        f"plan/network mismatch: tour depot {tour.depot} is not "
                        f"a depot of this network (depots are {n}..{n_nodes - 1})")
                for v in tour.order:
                    if v >= n_nodes:
                        raise ScheduleError(
                            f"plan/network mismatch: node {v} out of range "
                            f"for a network with {n_nodes} nodes")
            bad = [v for v in self.charged_sets[r] if v >= n]
            if bad:
                raise ScheduleError(
                    f"plan/network mismatch: scheduling at t={time} charges "
                    f"non-sensor nodes {bad}")

    # ------------------------------------------------------------ assembly
    @classmethod
    def from_schedulings(cls, schedulings: Iterable[ChargingScheduling],
                         horizon: float) -> "SchedulePlan":
        """Sort (by time) and tabulate; rejects duplicate dispatch times.

        Tour sets are matched by identity first and by value once per
        distinct object, so equal but distinct tuples share one entry and
        the table comes out in first-reference order.
        """
        ordered = sorted(schedulings, key=lambda s: s.time)
        index_of: dict[tuple[Tour, ...], int] = {}
        index_of_id: dict[int, int] = {}
        for s in ordered:
            if id(s.tours) not in index_of_id:
                index_of_id[id(s.tours)] = index_of.setdefault(s.tours, len(index_of))
        return cls(horizon=horizon, tour_sets=tuple(index_of),
                   times=[s.time for s in ordered],
                   refs=[index_of_id[id(s.tours)] for s in ordered])
