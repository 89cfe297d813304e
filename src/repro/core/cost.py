"""Service-cost accounting.

The paper's objective is the *service cost*: the total distance the ``q``
mobile chargers travel over the monitoring period. These helpers compute it
(and useful decompositions) for any :class:`~repro.core.schedule.SchedulePlan`,
with tour-set-level caching so Algorithm 3's block-repeating plans cost
``O(2^K)`` tour costings rather than ``O(T / tau_1)``. :func:`service_cost`
also takes ``None`` in place of the distance matrix plus node ``coords=``,
measuring tours from coordinates without building the matrix (the result
is bit-identical).
"""

from __future__ import annotations

import numpy as np

from repro.core.schedule import SchedulePlan
from repro.tsp.tour import Tour

__all__ = ["service_cost", "per_charger_cost", "cost_series"]


def _tour_cost_cache(dist: np.ndarray | None, coords: np.ndarray | None):
    """Memoised per-Tour cost function (tours are immutable and shared)."""
    d = None if dist is None else np.asarray(dist)
    cache: dict[int, float] = {}

    def cost(t: Tour) -> float:
        key = id(t)
        if key not in cache:
            cache[key] = t.cost(d, coords=coords)
        return cache[key]

    return cost


def service_cost(dist: np.ndarray | None, plan: SchedulePlan, *,
                 coords: np.ndarray | None = None) -> float:
    """Total travel distance of all chargers over the whole plan."""
    cost = _tour_cost_cache(dist, coords)
    return float(sum(cost(t) for s in plan.schedulings for t in s.tours))


def per_charger_cost(dist: np.ndarray, plan: SchedulePlan) -> np.ndarray:
    """``(q,)`` distance travelled by each charger over the plan.

    Chargers are identified positionally (tour ``l`` of every scheduling
    belongs to charger ``l``); plans always dispatch all chargers, with
    stay-at-home tours contributing zero.
    """
    cost = _tour_cost_cache(dist, None)
    if not plan.schedulings:
        return np.zeros(0, dtype=np.float64)
    q = plan.schedulings[0].q
    out = np.zeros(q, dtype=np.float64)
    for s in plan.schedulings:
        for l, t in enumerate(s.tours):
            out[l] += cost(t)
    return out


def cost_series(dist: np.ndarray, plan: SchedulePlan) -> tuple[np.ndarray, np.ndarray]:
    """Per-scheduling costs: ``(times, costs)`` arrays of equal length.

    Useful for plotting cumulative service cost over time and for checking
    the block periodicity of Algorithm 3's plans.
    """
    cost = _tour_cost_cache(dist, None)
    times = plan.times
    costs = np.asarray(
        [sum(cost(t) for t in s.tours) for s in plan.schedulings], dtype=np.float64)
    return times, costs
