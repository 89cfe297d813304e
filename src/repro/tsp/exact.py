"""Exact TSP for small instances (Held–Karp dynamic programming).

``O(2^k k^2)`` time and ``O(2^k k)`` memory — practical to ``k ≈ 18``.
Used to measure *true* approximation ratios of the heuristics on small
instances, and by :mod:`repro.rooted.exact` for the exact q-rooted problem.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import TourError
from repro.tsp.tour import Tour

__all__ = ["held_karp_tsp", "EXACT_TSP_MAX_NODES"]

#: Hard cap on instance size; beyond this the DP table exceeds ~100 MB.
EXACT_TSP_MAX_NODES = 18


def held_karp_tsp(dist: np.ndarray, depot: int, nodes: Sequence[int]) -> Tour:
    """The optimal closed tour over ``{depot} ∪ nodes``.

    Parameters
    ----------
    dist:
        Full distance matrix.
    depot:
        Anchor node (tour starts/ends here).
    nodes:
        The other nodes to visit; at most ``EXACT_TSP_MAX_NODES - 1``.

    Returns
    -------
    Tour
        A provably minimum closed tour.

    Notes
    -----
    Standard Held–Karp: ``dp[S][j]`` is the cheapest path from the depot
    through exactly the subset ``S`` of stops, ending at stop ``j``; the
    answer closes back to the depot. The inner loop is vectorised over the
    end vertex, so the Python-level work is ``O(2^k k)`` dictionary-free
    array updates.
    """
    d = np.asarray(dist, dtype=np.float64)
    stops = [int(v) for v in nodes if int(v) != int(depot)]
    if len(set(stops)) != len(stops):
        raise TourError("held_karp_tsp: duplicate nodes")
    k = len(stops)
    if k + 1 > EXACT_TSP_MAX_NODES:
        raise TourError(
            f"held_karp_tsp: {k + 1} nodes exceeds the exact-solver cap "
            f"of {EXACT_TSP_MAX_NODES}")
    if k == 0:
        return Tour.empty(depot)
    if k == 1:
        return Tour(depot=depot, order=(depot, stops[0]))

    idx = np.asarray(stops, dtype=np.intp)
    from_depot = d[depot, idx]              # (k,)
    between = d[np.ix_(idx, idx)]           # (k, k)

    size = 1 << k
    dp = np.full((size, k), np.inf)
    parent = np.full((size, k), -1, dtype=np.int32)
    for j in range(k):
        dp[1 << j, j] = from_depot[j]

    for mask in range(1, size):
        row = dp[mask]
        finite = np.isfinite(row)
        if not finite.any():
            continue
        ends = np.nonzero(finite)[0]
        for j in ends:
            base = row[j]
            # Extend to every stop not in the mask, vectorised.
            rest = ~(mask >> np.arange(k) & 1).astype(bool)
            if not rest.any():
                continue
            targets = np.nonzero(rest)[0]
            cand = base + between[j, targets]
            new_masks = mask | (1 << targets)
            better = cand < dp[new_masks, targets]
            if better.any():
                upd = targets[better]
                dp[new_masks[better], upd] = cand[better]
                parent[new_masks[better], upd] = j

    full = size - 1
    closing = dp[full] + d[idx, depot]
    j = int(np.argmin(closing))
    if not np.isfinite(closing[j]):
        raise TourError("held_karp_tsp: internal error — no tour found")

    # Reconstruct.
    order_rev = []
    mask = full
    while j != -1:
        order_rev.append(stops[j])
        pj = int(parent[mask, j])
        mask ^= 1 << j
        j = pj
    order_rev.reverse()
    return Tour(depot=depot, order=(depot, *order_rev))
