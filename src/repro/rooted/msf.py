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
* :func:`q_rooted_msf` — the depot-rooted special case over a
  :class:`~repro.network.model.SensorNetwork`-style full distance matrix,
  returning a :class:`~repro.graphs.forest.RootedForest` in graph indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import GraphError
from repro.graphs.forest import RootedForest
from repro.graphs.mst import prim_mst
from repro.obs.instrument import Instrumentation, ensure

__all__ = ["MsfAssignment", "rooted_msf", "q_rooted_msf"]


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

    def sensors_of(self, root: int) -> np.ndarray:
        """Local indices of the sensors assigned to ``root``."""
        return np.nonzero(self.owner == root)[0]


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
        best_root = rc.argmin(axis=1)
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

        sensor_edges: list[tuple[int, int]] = []
        root_links: list[tuple[int, int]] = []
        weight = 0.0
        for u, v in edges:
            if u == m:
                root_links.append((int(best_root[v]), int(v)))
                weight += float(best_root_cost[v])
            elif v == m:  # cannot happen with root=m orientation, kept for safety
                root_links.append((int(best_root[u]), int(u)))
                weight += float(best_root_cost[u])
            else:
                sensor_edges.append((int(u), int(v)))
                weight += float(sd[u, v])

        # Ownership: BFS each super-root subtree from its bridging sensor.
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
            raise GraphError("rooted_msf: internal error — unassigned sensor after MST")
        # Assignments may be shared by reference (the plan-artifact cache
        # hands forests to many callers); freeze the array so no consumer
        # can corrupt another's view.
        owner.setflags(write=False)
    return MsfAssignment(
        n_sensors=m, n_roots=n_roots,
        sensor_edges=tuple(sensor_edges), root_links=tuple(root_links),
        owner=owner, weight=weight,
    )


def q_rooted_msf(dist: np.ndarray, sensors: Sequence[int],
                 depots: Sequence[int],
                 *, obs: Instrumentation | None = None) -> RootedForest:
    """Algorithm 1 over graph indices: span ``sensors`` with one tree per
    depot in ``depots``.

    Parameters
    ----------
    dist:
        Full ``(N, N)`` distance matrix (network convention: sensors then
        depots, but any consistent indexing works).
    sensors:
        Graph indices of the to-be-charged sensors ``V^c`` (may be empty —
        the result is then ``q`` isolated roots).
    depots:
        Graph indices of the ``q`` depots; these become the forest's roots.

    Returns
    -------
    RootedForest
        Optimal q-rooted spanning forest in graph indices; depots with no
        assigned sensors get empty trees.
    """
    d = np.asarray(dist, dtype=np.float64)
    s_idx = np.asarray(list(sensors), dtype=np.intp)
    r_idx = np.asarray(list(depots), dtype=np.intp)
    if r_idx.size == 0:
        raise GraphError("q_rooted_msf: need at least one depot")
    if len(set(r_idx.tolist()) & set(s_idx.tolist())) > 0:
        raise GraphError("q_rooted_msf: sensor and depot index sets overlap")
    if s_idx.size == 0:
        return RootedForest(roots=tuple(int(r) for r in r_idx),
                            trees=tuple(() for _ in r_idx))

    assignment = rooted_msf(d[np.ix_(s_idx, s_idx)], d[np.ix_(s_idx, r_idx)],
                            obs=obs)
    trees: list[list[tuple[int, int]]] = [[] for _ in range(r_idx.size)]
    for root, sensor in assignment.root_links:
        trees[root].append((int(r_idx[root]), int(s_idx[sensor])))
    for u, v in assignment.sensor_edges:
        trees[int(assignment.owner[u])].append((int(s_idx[u]), int(s_idx[v])))
    return RootedForest(roots=tuple(int(r) for r in r_idx),
                        trees=tuple(tuple(t) for t in trees))
