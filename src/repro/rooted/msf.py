"""Algorithm 1: the exact q-rooted minimum spanning forest.

The q-rooted MSF problem asks for ``q`` vertex-disjoint trees, one per
depot, jointly spanning a sensor set ``V^c`` at minimum total edge weight.
The paper's exact algorithm (its Lemma 1):

1. *Contract* all ``q`` depots into a single super-root ``r`` with
   ``w(v, r) = min_l w(v, r_l)`` for every sensor ``v``.
2. Compute an MST of the contracted graph (``O(n^2)`` dense Prim).
3. *Un-contract*: each MST edge ``(v, r)`` becomes ``(v, argmin_l w(v, r_l))``,
   and each subtree hanging off the super-root lands in the tree of the
   depot its bridging edge selected.

This module exposes the contraction engine twice:

* :func:`rooted_msf` — the general form over an explicit
  ``(sensor-sensor distances, sensor-root costs)`` pair. The adaptive
  heuristic (Section VI) calls this with *scheduling supernodes* as roots,
  where ``root_costs[i, j]`` is the nearest distance from sensor ``i`` to
  any node already in scheduling ``j``.
* :func:`q_rooted_msf` — the depot-rooted special case, returning a
  :class:`~repro.graphs.forest.RootedForest` in graph indices, from a full
  distance matrix or from node coordinates. From coordinates, a set of at
  least :data:`DELAUNAY_MIN_SENSORS` sensors is solved over its Delaunay
  triangulation plus the super-root edges (about ``4m`` candidates instead
  of ``m^2``) with the same result as dense Prim (``docs/ALGORITHMS.md`` §1).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Sequence

import numpy as np

from repro.errors import GraphError
from repro.geometry.distance import distance_matrix, edge_lengths
from repro.graphs.forest import RootedForest
from repro.graphs.mst import prim_mst
from repro.obs.instrument import Instrumentation, ensure

__all__ = ["MsfAssignment", "rooted_msf", "q_rooted_msf", "DELAUNAY_MIN_SENSORS"]

#: Sensor sets smaller than this skip the Delaunay path and run dense Prim
#: on a matrix over their own nodes. Below it the triangulation saves only
#: a few milliseconds, far less than scipy's import, which small plans
#: therefore never pay.
DELAUNAY_MIN_SENSORS = 512

Edge = tuple[int, int]


@dataclass(frozen=True)
class MsfAssignment:
    """Result of the contraction engine, in *local* sensor indices.

    Parameters
    ----------
    n_sensors, n_roots:
        Problem dimensions.
    sensor_edges:
        Tree edges between sensors, as local index pairs.
    root_links:
        Bridging edges ``(root, sensor)`` produced by un-contraction; one per
        subtree hanging off the super-root.
    owner:
        ``(n_sensors,)`` array; ``owner[i]`` is the root whose tree sensor
        ``i`` belongs to.
    weight:
        Total forest weight (sensor edges + root links).
    """

    n_sensors: int
    n_roots: int
    sensor_edges: tuple[tuple[int, int], ...]
    root_links: tuple[tuple[int, int], ...]
    owner: np.ndarray
    weight: float


def rooted_msf(sensor_dist: np.ndarray, root_costs: np.ndarray,
               *, obs: Instrumentation | None = None) -> MsfAssignment:
    """Exact rooted MSF via depot contraction.

    Parameters
    ----------
    sensor_dist:
        ``(m, m)`` distances among the ``m`` sensors to be spanned.
    root_costs:
        ``(m, R)`` cost of attaching each sensor directly to each of the
        ``R`` roots (``inf`` allowed to forbid an attachment, as long as
        every sensor can reach some root).
    obs:
        Optional instrumentation context; records an ``msf`` span plus the
        ``msf.calls`` / ``msf.mst_rounds`` counters.

    Returns
    -------
    MsfAssignment
        Optimal forest. With ``m == 0`` the result is the empty forest.

    Notes
    -----
    Optimality argument (paper's Lemma 1): any feasible forest maps to a
    spanning tree of the contracted graph of equal weight, and conversely;
    the MST therefore has the minimum feasible weight, and un-contraction
    preserves it exactly because each super-root edge is realised by its
    cheapest depot.
    """
    sd = np.asarray(sensor_dist, dtype=np.float64)
    rc = np.asarray(root_costs, dtype=np.float64)
    if sd.ndim != 2 or sd.shape[0] != sd.shape[1]:
        raise GraphError(f"rooted_msf: sensor_dist must be square, got {sd.shape}")
    m = sd.shape[0]
    if rc.shape[0] != m or rc.ndim != 2:
        raise GraphError(
            f"rooted_msf: root_costs shape {rc.shape} incompatible with m={m}")
    n_roots = rc.shape[1]
    if n_roots < 1:
        raise GraphError("rooted_msf: need at least one root")
    if m == 0:
        return MsfAssignment(0, n_roots, (), (), np.empty(0, dtype=np.intp), 0.0)

    o = ensure(obs)
    o.incr("msf.calls")
    o.incr("msf.mst_rounds", m)  # Prim runs m rounds on the contracted graph
    with o.span("msf", sensors=m, roots=n_roots):
        # Contract: node m is the super-root.
        best_root_cost = rc.min(axis=1)
        if not np.all(np.isfinite(best_root_cost)):
            bad = int(np.argmax(~np.isfinite(best_root_cost)))
            raise GraphError(f"rooted_msf: sensor {bad} cannot reach any root")
        contracted = np.empty((m + 1, m + 1), dtype=np.float64)
        contracted[:m, :m] = sd
        contracted[:m, m] = best_root_cost
        contracted[m, :m] = best_root_cost
        contracted[m, m] = 0.0

        # MST rooted at the super-root so bridging edges appear as (m, v).
        edges = prim_mst(contracted, root=m, obs=obs)
        weights = [contracted[u, v] for u, v in edges]
        return _uncontract(edges, weights, rc.argmin(axis=1), n_roots)


def q_rooted_msf(dist: np.ndarray | None, sensors: Sequence[int],
                 depots: Sequence[int], *, coords: np.ndarray | None = None,
                 obs: Instrumentation | None = None) -> RootedForest:
    """Algorithm 1 over graph indices: span ``sensors`` with one tree per
    depot in ``depots``.

    Parameters
    ----------
    dist:
        Full ``(N, N)`` distance matrix (network convention: sensors then
        depots, but any consistent indexing works), or ``None`` with
        ``coords=``. Pass exactly one.
    sensors:
        Graph indices of the to-be-charged sensors ``V^c`` (may be empty —
        the result is then ``q`` isolated roots).
    depots:
        Graph indices of the ``q`` depots; these become the forest's roots.
    coords:
        ``(N, 2)`` node coordinates in the same indexing. Every edge weight
        is then read from them with :func:`~repro.geometry.distance.distance_matrix`'s
        per-pair arithmetic, so the forest is identical to the one the
        matrix gives — edge for edge, in the same order and orientation —
        and no ``(N, N)`` matrix is built.
    obs:
        Optional instrumentation; the dense solve records what
        :func:`rooted_msf` records. A Delaunay solve records an
        ``msf.delaunay`` span and the ``msf.calls`` / ``msf.mst_rounds``
        counters; ``msf.delaunay.fallbacks`` counts the sets at or above
        :data:`DELAUNAY_MIN_SENSORS` that fell back to dense Prim.

    Returns
    -------
    RootedForest
        Optimal q-rooted spanning forest in graph indices; depots with no
        assigned sensors get empty trees.
    """
    if (dist is None) == (coords is None):
        raise TypeError("q_rooted_msf: pass exactly one of dist or coords=")
    s_idx = np.asarray(list(sensors), dtype=np.intp)
    r_idx = np.asarray(list(depots), dtype=np.intp)
    if r_idx.size == 0:
        raise GraphError("q_rooted_msf: need at least one depot")
    if len(set(r_idx.tolist()) & set(s_idx.tolist())) > 0:
        raise GraphError("q_rooted_msf: sensor and depot index sets overlap")
    if s_idx.size == 0:
        return RootedForest(roots=tuple(int(r) for r in r_idx),
                            trees=tuple(() for _ in r_idx))

    if coords is None:
        d = np.asarray(dist, dtype=np.float64)
        assignment = rooted_msf(d[np.ix_(s_idx, s_idx)], d[np.ix_(s_idx, r_idx)],
                                obs=obs)
        return _graph_forest(assignment, s_idx, r_idx)

    pts = np.asarray(coords, dtype=np.float64)
    m = s_idx.size
    assignment = None
    if m >= DELAUNAY_MIN_SENSORS:
        assignment = _delaunay_msf(pts, s_idx, r_idx, obs)
        if assignment is None:
            ensure(obs).incr("msf.delaunay.fallbacks")
    if assignment is None:
        # A matrix over the set's own nodes only: its entries are the full
        # matrix's, bit for bit.
        local = distance_matrix(pts[np.concatenate([s_idx, r_idx])])
        assignment = rooted_msf(local[:m, :m], local[:m, m:], obs=obs)
    return _graph_forest(assignment, s_idx, r_idx)


def _delaunay_msf(pts: np.ndarray, s_idx: np.ndarray, r_idx: np.ndarray,
                  obs: Instrumentation | None) -> MsfAssignment | None:
    """The dense contracted Prim's answer from Delaunay candidates, or
    ``None`` when the triangulation or :func:`_sparse_prim` cannot
    certify it (collinear or coincident points, tied or zero weights)."""
    from scipy.spatial import Delaunay, QhullError

    o = ensure(obs)
    m, q = s_idx.size, r_idx.size
    with o.span("msf.delaunay", sensors=m, roots=q):
        sensor_pts = pts[s_idx]
        try:
            tri = Delaunay(sensor_pts)
        except QhullError:
            return None
        if tri.coplanar.size:  # coincident points left out of the mesh
            return None
        indptr, nbrs = tri.vertex_neighbor_vertices
        src = np.repeat(np.arange(m, dtype=np.intp), np.diff(indptr))
        keep = src < nbrs
        u, v = src[keep], nbrs[keep].astype(np.intp)
        root_cost = edge_lengths(pts, np.repeat(s_idx, q),
                                 np.tile(r_idx, m)).reshape(m, q)
        best_root_cost = root_cost.min(axis=1)
        found = _sparse_prim(
            m + 1, m,
            np.concatenate([u, np.arange(m, dtype=np.intp)]),
            np.concatenate([v, np.full(m, m, dtype=np.intp)]),
            np.concatenate([edge_lengths(sensor_pts, u, v), best_root_cost]))
        if found is None:
            return None
        o.incr("msf.calls")
        o.incr("msf.mst_rounds", m)
        return _uncontract(*found, root_cost.argmin(axis=1), q)


def _sparse_prim(n: int, root: int, u: np.ndarray, v: np.ndarray,
                 w: np.ndarray) -> tuple[list[Edge], list[float]] | None:
    """Dense Prim's edges and their weights, from a sparse candidate graph.

    The candidates ``(u[i], v[i])`` of weight ``w[i]`` (each unordered pair
    at most once) must include the MST of the complete graph on nodes
    ``0..n-1``. Under distinct weights the edge dense Prim adds each round —
    the lightest one crossing the (tree, rest) cut — is an MST edge, so
    Prim run over the MST alone adds the same edge from the same tree
    endpoint in the same round. This finds the MST (scipy's sparse
    Kruskal), then replays Prim from ``root`` over it with a heap: each node
    is pushed once, by its tree neighbour already in the tree.

    Returns ``(parent, child)`` edges in discovery order with their
    weights, or ``None`` — "use dense Prim" — unless the weights are
    finite, positive (the sparse MST reads a zero as no edge) and pairwise
    distinct, and the candidates connect all ``n`` nodes.
    """
    if not (np.all(np.isfinite(w)) and np.all(w > 0)
            and np.unique(w).size == w.size):
        return None
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import minimum_spanning_tree

    tree = minimum_spanning_tree(coo_matrix((w, (u, v)), shape=(n, n))).tocoo()
    if tree.nnz != n - 1:
        return None
    src = np.concatenate([tree.row, tree.col])
    order = np.argsort(src, kind="stable")
    nbr = np.concatenate([tree.col, tree.row])[order].tolist()
    nbr_w = np.concatenate([tree.data, tree.data])[order].tolist()
    starts = np.searchsorted(src[order], np.arange(n + 1)).tolist()

    in_tree = [False] * n
    in_tree[root] = True
    frontier = [(nbr_w[k], root, nbr[k]) for k in range(starts[root], starts[root + 1])]
    heapify(frontier)
    edges: list[Edge] = []
    weights: list[float] = []
    while frontier:
        x, parent, child = heappop(frontier)
        in_tree[child] = True
        edges.append((parent, child))
        weights.append(x)
        for k in range(starts[child], starts[child + 1]):
            if not in_tree[nbr[k]]:
                heappush(frontier, (nbr_w[k], child, nbr[k]))
    return edges, weights


def _uncontract(edges: Sequence[Edge], weights: Sequence[float],
                best_root: np.ndarray, n_roots: int) -> MsfAssignment:
    """Un-contract a Prim run on the contracted graph (super-root ``m``).

    ``edges`` are Prim's ``(parent, child)`` pairs in discovery order and
    ``weights`` their weights; ``best_root[v]`` is the root realising
    sensor ``v``'s super-root edge. Each super-root edge becomes a root
    link, and a walk from each link's sensor assigns its subtree's owner.
    """
    m = best_root.size
    sensor_edges: list[Edge] = []
    root_links: list[Edge] = []
    weight = 0.0
    for (u, v), w in zip(edges, weights):
        if u == m:
            root_links.append((int(best_root[v]), int(v)))
        else:
            sensor_edges.append((int(u), int(v)))
        weight += float(w)

    adj: list[list[int]] = [[] for _ in range(m)]
    for u, v in sensor_edges:
        adj[u].append(v)
        adj[v].append(u)
    owner = np.full(m, -1, dtype=np.intp)
    for root, start in root_links:
        stack = [start]
        owner[start] = root
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if owner[y] == -1:
                    owner[y] = root
                    stack.append(y)
    if np.any(owner == -1):
        raise GraphError("MSF un-contraction: internal error — unassigned sensor after MST")
    # Assignments may be shared by reference (the plan-artifact cache
    # hands forests to many callers); freeze the array so no consumer
    # can corrupt another's view.
    owner.setflags(write=False)
    return MsfAssignment(
        n_sensors=m, n_roots=n_roots,
        sensor_edges=tuple(sensor_edges), root_links=tuple(root_links),
        owner=owner, weight=weight,
    )


def _graph_forest(assignment: MsfAssignment, s_idx: np.ndarray,
                  r_idx: np.ndarray) -> RootedForest:
    """``assignment`` (local indices) as a forest in graph indices: each
    tree lists its root links, then its sensor edges, in discovery order."""
    trees: list[list[Edge]] = [[] for _ in range(r_idx.size)]
    for root, sensor in assignment.root_links:
        trees[root].append((int(r_idx[root]), int(s_idx[sensor])))
    for u, v in assignment.sensor_edges:
        trees[int(assignment.owner[u])].append((int(s_idx[u]), int(s_idx[v])))
    return RootedForest(roots=tuple(int(r) for r in r_idx),
                        trees=tuple(tuple(t) for t in trees))
