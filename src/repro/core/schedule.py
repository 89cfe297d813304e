"""Charging schedulings and plans — the solution data model.

A *charging scheduling* is the paper's 2-tuple ``(C_j, t_j)``: at time
``t_j`` every mobile charger ``l`` drives closed tour ``C_{j,l}`` and fully
charges every sensor it visits. A *plan* is the ordered series of
schedulings covering the monitoring period.

Tours are immutable and shared: Algorithm 3 computes only ``2^K`` distinct
tour sets and repeats them across the period, so a plan's schedulings
reference the same :class:`~repro.tsp.tour.Tour` objects many times and the
cost of each distinct set is computed once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ScheduleError
from repro.tsp.tour import Tour

__all__ = ["ChargingScheduling", "SchedulePlan"]


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
        if not self.tours:
            raise ScheduleError("scheduling must contain at least one tour")
        depots = [t.depot for t in self.tours]
        if len(set(depots)) != len(depots):
            raise ScheduleError(f"scheduling has two tours on one depot: {depots}")

    @property
    def q(self) -> int:
        """Number of chargers dispatched (including stay-at-home ones)."""
        return len(self.tours)

    @cached_property
    def charged_sensors(self) -> frozenset[int]:
        """All non-depot nodes visited — the sensors charged at this time."""
        depots = {t.depot for t in self.tours}
        nodes: set[int] = set()
        for t in self.tours:
            nodes |= set(t.order)
        return frozenset(nodes - depots)

    def cost(self, dist: np.ndarray | None = None, *,
             coords: np.ndarray | None = None) -> float:
        """Total tour length of this scheduling, under a distance matrix or
        node ``coords=`` (see :meth:`~repro.tsp.tour.Tour.cost`)."""
        return float(sum(t.cost(dist, coords=coords) for t in self.tours))

    def at_time(self, time: float) -> "ChargingScheduling":
        """The same tour set dispatched at a different time (cheap: tours
        are shared, not copied). How Algorithm 3 repeats its block."""
        return ChargingScheduling(time=time, tours=self.tours)


@dataclass(frozen=True)
class SchedulePlan:
    """An ordered series of charging schedulings over a monitoring period.

    Parameters
    ----------
    schedulings:
        The series, strictly increasing in time.
    horizon:
        The monitoring period ``T``; all dispatch times must lie in
        ``[0, horizon)``.
    """

    schedulings: tuple[ChargingScheduling, ...]
    horizon: float

    def __post_init__(self) -> None:
        if self.horizon <= 0 or not math.isfinite(self.horizon):
            raise ScheduleError(f"horizon must be positive and finite, got {self.horizon}")
        times = [s.time for s in self.schedulings]
        for a, b in zip(times, times[1:]):
            if b <= a:
                raise ScheduleError(f"scheduling times not strictly increasing: {a} then {b}")
        if times and times[-1] >= self.horizon:
            raise ScheduleError(
                f"scheduling at t={times[-1]} is not before the horizon {self.horizon}")

    # ------------------------------------------------------------- iteration
    def __len__(self) -> int:
        return len(self.schedulings)

    def __iter__(self) -> Iterator[ChargingScheduling]:
        return iter(self.schedulings)

    def __getitem__(self, i: int) -> ChargingScheduling:
        return self.schedulings[i]

    @property
    def times(self) -> np.ndarray:
        """Dispatch times as an array."""
        return np.asarray([s.time for s in self.schedulings], dtype=np.float64)

    # ----------------------------------------------------------------- costs
    def total_cost(self, dist: np.ndarray | None = None, *,
                   coords: np.ndarray | None = None) -> float:
        """The service cost: sum of all tour lengths over the plan.

        Tours are measured under the distance matrix ``dist`` or, with
        ``coords=``, from node coordinates, bit-identically and without
        building the matrix. Repeated tour sets are costed once and
        multiplied (Algorithm 3's plans repeat one block, so this is
        typically ``K + 1`` distinct costings, not ``len(plan)``). Tour
        sets are matched by identity first and hashed by value once per
        distinct object.
        """
        cost_of: dict[tuple[Tour, ...], float] = {}
        cost_of_id: dict[int, float] = {}
        total = 0.0
        for s in self.schedulings:
            cost = cost_of_id.get(id(s.tours))
            if cost is None:
                cost = cost_of.get(s.tours)
                if cost is None:
                    cost = cost_of[s.tours] = s.cost(dist, coords=coords)
                cost_of_id[id(s.tours)] = cost
            total += cost
        return total

    # -------------------------------------------------------------- queries
    def charge_times_of(self, sensor: int) -> list[float]:
        """All times at which ``sensor`` gets charged, in order."""
        return [s.time for s in self.schedulings if sensor in s.charged_sensors]

    def sensors_covered(self) -> frozenset[int]:
        """Every sensor charged at least once by the plan."""
        out: set[int] = set()
        for s in self.schedulings:
            out |= s.charged_sensors
        return frozenset(out)

    def between(self, t0: float, t1: float) -> list[ChargingScheduling]:
        """Schedulings with dispatch time in ``[t0, t1)``."""
        return [s for s in self.schedulings if t0 <= s.time < t1]

    def validate_for(self, network) -> None:
        """Raise :class:`ScheduleError` unless this plan is well-formed for
        ``network``: every tour's depot is one of the network's depots, and
        every charged node is a sensor of the network.

        Guards the serialisation workflow — replaying a plan against the
        wrong network file would otherwise fail late (or worse, charge the
        wrong indices silently when sizes happen to align). Each distinct
        tour set (by identity) is checked once, at its first scheduling,
        so an error names the earliest offending dispatch time.
        """
        n, n_nodes = network.n, network.n_nodes
        seen: set[int] = set()
        for s in self.schedulings:
            if id(s.tours) in seen:
                continue
            seen.add(id(s.tours))
            for tour in s.tours:
                if not network.is_depot(tour.depot):
                    raise ScheduleError(
                        f"plan/network mismatch: tour depot {tour.depot} is not "
                        f"a depot of this network (depots are {n}..{n_nodes - 1})")
                for v in tour.order:
                    if v >= n_nodes:
                        raise ScheduleError(
                            f"plan/network mismatch: node {v} out of range "
                            f"for a network with {n_nodes} nodes")
            bad = [v for v in s.charged_sensors if v >= n]
            if bad:
                raise ScheduleError(
                    f"plan/network mismatch: scheduling at t={s.time} charges "
                    f"non-sensor nodes {bad}")

    # ------------------------------------------------------------ assembly
    @classmethod
    def from_schedulings(cls, schedulings: Iterable[ChargingScheduling],
                         horizon: float) -> "SchedulePlan":
        """Sort (by time) and wrap; rejects duplicate dispatch times."""
        ordered = tuple(sorted(schedulings, key=lambda s: s.time))
        return cls(schedulings=ordered, horizon=horizon)

    def merged_with(self, extra: Sequence[ChargingScheduling]) -> "SchedulePlan":
        """A new plan with ``extra`` schedulings spliced in (adaptive
        re-planning splices patch schedulings before the recomputed tail)."""
        return SchedulePlan.from_schedulings(
            list(self.schedulings) + list(extra), self.horizon)
