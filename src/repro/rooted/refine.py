"""Optional post-optimisation of q-rooted tours.

2-opt only ever accepts strictly better orders, so refined solutions keep
every guarantee of the construction they start from. This is the
``abl-refine`` ablation's subject, not part of the paper's algorithm.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.distance import distance_matrix
from repro.obs.instrument import Instrumentation
from repro.tsp.improve import two_opt
from repro.tsp.tour import Tour

__all__ = ["refine_tours"]


def refine_tours(dist: np.ndarray | None, tours: Sequence[Tour],
                 *, coords: np.ndarray | None = None,
                 obs: Instrumentation | None = None) -> list[Tour]:
    """Improve each tour independently with 2-opt.

    Parameters
    ----------
    dist:
        Full distance matrix, or ``None`` with ``coords=``. Pass exactly
        one.
    tours:
        Tours to improve (depot assignments are never changed — the q-rooted
        structure, i.e. which charger serves which sensors, is preserved).
    coords:
        ``(N, 2)`` node coordinates. Each tour's ``k x k`` matrix over its
        own nodes is then built from them instead of sliced out of
        ``dist``; the entries, hence the refined tours, are identical.
    obs:
        Optional instrumentation context, forwarded to :func:`two_opt`
        (``two_opt.passes`` / ``two_opt.moves`` counters and friends).

    Returns
    -------
    list[Tour]
        Improved tours; each costs at most its input's cost.
    """
    if (dist is None) == (coords is None):
        raise TypeError("refine_tours: pass exactly one of dist or coords=")
    out: list[Tour] = []
    for t in tours:
        # Relabel the tour to 0..k-1 over a matrix of its own nodes.
        nodes = np.asarray(t.order, dtype=np.intp)
        d = (np.asarray(dist)[np.ix_(nodes, nodes)] if coords is None
             else distance_matrix(np.asarray(coords)[nodes]))
        improved = two_opt(d, Tour(depot=0, order=tuple(range(nodes.size))), obs=obs)
        out.append(t.with_order(nodes[list(improved.order)].tolist()))
    return out
