"""Tour constructors.

:func:`mst_doubling_tour` is the constructor the paper's Algorithm 2 applies
to each rooted tree — double the MST, take an Eulerian circuit, shortcut —
implemented as a single DFS preorder (provably the same result on trees).
The other constructors (nearest neighbour, cheapest insertion) exist for the
ablation benches and as independent cross-checks in tests; none of the
paper's guarantees rely on them.

All functions work on an arbitrary *node index list* plus the full distance
matrix: subproblems are index arrays, never copied submatrices, so the hot
path allocates ``O(k)`` per call, not ``O(k^2)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import TourError
from repro.graphs.mst import prim_mst
from repro.graphs.traversal import adjacency_from_edges, preorder
from repro.obs.instrument import Instrumentation
from repro.tsp.tour import Tour

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (graphs -> tsp)
    from repro.graphs.forest import RootedForest

__all__ = ["mst_doubling_tour", "nearest_neighbor_tour",
           "cheapest_insertion_tour", "tours_from_forest"]


def tours_from_forest(forest: "RootedForest") -> list[Tour]:
    """The double/Euler/shortcut step applied to every tree of ``forest``.

    This is the *tour construction* stage of the planner pipeline
    (:mod:`repro.plan.pipeline`): given a solved q-rooted forest, walk each
    tree in DFS preorder — provably identical to doubling the tree, taking
    an Eulerian circuit and short-cutting repeats. Exposed as a standalone
    stage so the plan-artifact cache can re-tour a memoized forest without
    re-running Algorithm 1, and so the adaptive heuristic can re-tour
    patched node sets.
    """
    tours: list[Tour] = []
    for l in range(forest.q):
        order = forest.preorder_of(l)
        tours.append(Tour(depot=forest.roots[l], order=tuple(order)))
    return tours


def _prepare(dist: np.ndarray, depot: int, nodes: Sequence[int]) -> tuple[np.ndarray, list[int]]:
    """Common argument validation; returns (dist, node list with depot first)."""
    d = np.asarray(dist)
    node_list = [int(v) for v in nodes]
    if depot in node_list:
        node_list.remove(int(depot))
    members = [int(depot)] + node_list
    if len(set(members)) != len(members):
        raise TourError(f"duplicate nodes in tour construction: {members}")
    for v in members:
        if not (0 <= v < d.shape[0]):
            raise TourError(f"node {v} out of range for distance matrix of size {d.shape[0]}")
    return d, members


def mst_doubling_tour(dist: np.ndarray, depot: int, nodes: Sequence[int],
                      *, obs: Instrumentation | None = None) -> Tour:
    """2-approximate tour over ``{depot} ∪ nodes``: MST + preorder walk.

    This is exactly Algorithm 2's per-tree step. The MST is computed on the
    induced complete subgraph; walking it in DFS preorder and closing back to
    the depot costs at most twice the MST weight, which in turn lower-bounds
    the optimal tour.
    """
    d, members = _prepare(dist, depot, nodes)
    if len(members) == 1:
        return Tour.empty(depot)
    sub = d[np.ix_(members, members)]
    edges = prim_mst(sub, root=0, obs=obs)
    adj = adjacency_from_edges(edges, nodes=range(len(members)))
    order_local = preorder(adj, 0)
    return Tour(depot=depot, order=tuple(members[i] for i in order_local))


def nearest_neighbor_tour(dist: np.ndarray, depot: int, nodes: Sequence[int]) -> Tour:
    """Greedy constructor: repeatedly hop to the closest unvisited node.

    ``O(k^2)`` with a vectorised argmin per step. No worst-case guarantee
    (its ratio is Θ(log k)) — benchmark/baseline use only.
    """
    d, members = _prepare(dist, depot, nodes)
    if len(members) == 1:
        return Tour.empty(depot)
    idx = np.asarray(members, dtype=np.intp)
    remaining = np.ones(len(members), dtype=bool)
    remaining[0] = False
    order = [0]
    current = 0
    for _ in range(len(members) - 1):
        row = d[idx[current], idx]
        masked = np.where(remaining, row, np.inf)
        nxt = int(np.argmin(masked))
        order.append(nxt)
        remaining[nxt] = False
        current = nxt
    return Tour(depot=depot, order=tuple(members[i] for i in order))


def cheapest_insertion_tour(dist: np.ndarray, depot: int, nodes: Sequence[int]) -> Tour:
    """Cheapest-insertion constructor (2-approximate on metrics).

    Start from the depot and the node nearest to it; repeatedly insert the
    unrouted node whose best insertion position increases the tour least.
    ``O(k^2)`` via incremental best-insertion bookkeeping per node.
    """
    d, members = _prepare(dist, depot, nodes)
    k = len(members)
    if k == 1:
        return Tour.empty(depot)
    idx = np.asarray(members, dtype=np.intp)
    sub = d[np.ix_(idx, idx)]

    first = int(np.argmin(np.where(np.arange(k) == 0, np.inf, sub[0])))
    route = [0, first]
    unrouted = set(range(k)) - {0, first}
    while unrouted:
        best_cost = np.inf
        best_node = -1
        best_pos = -1
        route_arr = np.asarray(route, dtype=np.intp)
        nxt_arr = np.roll(route_arr, -1)
        for v in unrouted:
            # Insertion of v between consecutive pair (a, b): cost
            # d(a,v) + d(v,b) - d(a,b); vectorised over all pairs at once.
            inc = sub[route_arr, v] + sub[v, nxt_arr] - sub[route_arr, nxt_arr]
            pos = int(np.argmin(inc))
            if inc[pos] < best_cost:
                best_cost = float(inc[pos])
                best_node = v
                best_pos = pos
        route.insert(best_pos + 1, best_node)
        unrouted.remove(best_node)
    # Rotate so the depot (local index 0) is first.
    zero_at = route.index(0)
    route = route[zero_at:] + route[:zero_at]
    return Tour(depot=depot, order=tuple(members[i] for i in route))
