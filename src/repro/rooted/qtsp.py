"""Algorithm 2: the 2-approximation for the q-rooted TSP.

Given a to-be-charged sensor set ``V^c`` and ``q`` depots, find ``q`` closed
tours — one through each depot — jointly covering ``V^c`` with minimum total
length. The paper's algorithm:

1. Compute the optimal q-rooted MSF (Algorithm 1). Its weight lower-bounds
   the optimal q-tour cost (drop one edge from each optimal tour to get a
   feasible forest).
2. Turn each tree into a closed tour by doubling its edges, extracting an
   Eulerian circuit, and short-cutting repeated nodes — implemented as a
   single DFS preorder walk, which on a tree is provably the same tour.

The result costs at most ``2 * MSF <= 2 * OPT`` (paper's Theorem 1).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.obs.instrument import Instrumentation, ensure
from repro.rooted.msf import q_rooted_msf
from repro.rooted.refine import refine_tours
from repro.tsp.construct import tours_from_forest
from repro.tsp.tour import Tour

__all__ = ["q_rooted_tsp", "tours_from_forest", "tours_total_cost"]


def q_rooted_tsp(dist: np.ndarray | None, sensors: Sequence[int],
                 depots: Sequence[int], *, refine: bool = False,
                 coords: np.ndarray | None = None,
                 obs: Instrumentation | None = None) -> list[Tour]:
    """Solve the q-rooted TSP 2-approximately (Algorithm 2).

    Parameters
    ----------
    dist:
        Full distance matrix, or ``None`` with ``coords=``. Pass exactly
        one.
    sensors:
        Graph indices of the to-be-charged sensors (may be empty).
    depots:
        Graph indices of the ``q`` depots; output tour ``l`` is anchored at
        ``depots[l]``. Depots with nothing assigned yield empty tours of
        cost zero (the charger stays home), exactly as the paper allows.
    refine:
        Apply the 2-opt post-pass. Off by default — the paper's
        algorithm does not include it; the ``abl-refine`` bench measures
        what it buys.
    obs:
        Optional instrumentation context; records a ``qtsp`` span, the
        ``qtsp.calls`` counter and the ``qtsp.shortcut_saving`` value
        series (doubled-forest walk length minus the realised tour cost —
        what the Euler short-cutting step saves).
    coords:
        ``(N, 2)`` node coordinates: solve and measure from them instead
        of a matrix (the tours are identical; see
        :func:`~repro.rooted.msf.q_rooted_msf`).

    Returns
    -------
    list[Tour]
        One tour per depot, jointly covering ``sensors``.
    """
    o = ensure(obs)
    o.incr("qtsp.calls")
    sensors = list(sensors)
    with o.span("qtsp", sensors=len(sensors)):
        forest = q_rooted_msf(dist, sensors, depots, coords=coords, obs=obs)
        tours = tours_from_forest(forest)
        if refine:
            tours = refine_tours(dist, tours, coords=coords, obs=obs)
    if o.enabled:
        o.observe("qtsp.shortcut_saving",
                  2.0 * forest.weight(dist, coords=coords)
                  - tours_total_cost(dist, tours, coords=coords))
    return tours


def tours_total_cost(dist: np.ndarray | None, tours: Sequence[Tour], *,
                     coords: np.ndarray | None = None) -> float:
    """Sum of closed-tour lengths — the service cost of one scheduling.

    Measured under the matrix ``dist``, or pass ``None`` and node
    ``coords=`` to read the edges from coordinates (bit-identical).
    """
    return float(sum(t.cost(dist, coords=coords) for t in tours))
