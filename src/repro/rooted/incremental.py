"""Incremental extension of a q-rooted MSF after sensors are added.

The adaptive repair step (Section VI.B) grows scheduling node sets: a
re-toured scheduling covers its base coverage set *plus* a handful of
absorbed urgent sensors. Rebuilding the forest from scratch repeats the
full dense contracted-Prim run of Algorithm 1 even though almost all of
the optimal structure is already known.

:func:`extend_q_rooted_msf` exploits the incremental-MST lemma instead:
when vertices ``S`` (and all their incident edges) are added to a graph
``G``, the new MST satisfies ``MST(G + S) ⊆ MST(G) ∪ δ(S)`` — the old
tree edges plus the edges incident to the added vertices. Running Prim
over just that candidate set (``O(|T| + |S|·n)`` edges instead of the
full ``O(n^2)``) therefore finds the same optimum.

Exactness contract
------------------
The function either returns a forest **identical** — edge for edge, in
the same discovery order and orientation — to what
:func:`repro.rooted.msf.q_rooted_msf` would produce from scratch on the
union set, or returns ``None`` to make the caller fall back to the
from-scratch path. Identity (not mere equal weight) matters because tour
construction walks the forest's adjacency in edge-insertion order; a
different-but-equally-light forest would change tours downstream.

Identity holds because Prim's selection at every round is the minimum
edge crossing the ``(tree, rest)`` cut, which under distinct edge
weights is always an MST edge and hence always in the candidate set; the
sparse Prim (:func:`repro.rooted.msf._sparse_prim`, shared with the
Delaunay path of :func:`~repro.rooted.msf.q_rooted_msf`) therefore picks
the same node with the same parent every round as the dense frontier
does. Ties void the argument, so the function *tie-gates*: if any two
candidate weights are exactly equal (or one is zero) it refuses
(returns ``None``) rather than risk a divergent-but-valid forest. (A
tie between a candidate and a never-inspected non-candidate edge remains
theoretically possible; on float coordinates it has measure zero, and
the differential check in :mod:`repro.check` fuzzes exactly this
equivalence.)
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import GraphError
from repro.graphs.forest import RootedForest
from repro.obs.instrument import Instrumentation, ensure
from repro.rooted.msf import _graph_forest, _sparse_prim, _uncontract

__all__ = ["extend_q_rooted_msf"]


def extend_q_rooted_msf(dist: np.ndarray, base_sensors: Sequence[int],
                        base_forest: RootedForest, added: Sequence[int],
                        depots: Sequence[int],
                        *, obs: Instrumentation | None = None) -> RootedForest | None:
    """Extend ``base_forest`` to span ``base_sensors ∪ added``, exactly.

    Parameters
    ----------
    dist:
        Full ``(N, N)`` distance matrix in graph indices.
    base_sensors:
        Graph indices the base forest spans (its non-root nodes).
    base_forest:
        The optimal q-rooted MSF over ``base_sensors`` and ``depots`` —
        exactly what :func:`~repro.rooted.msf.q_rooted_msf` returned.
    added:
        Graph indices of the sensors to absorb (disjoint from
        ``base_sensors`` and ``depots``).
    depots:
        Graph indices of the ``q`` depots, in charger order. Must match
        ``base_forest.roots``.
    obs:
        Optional instrumentation; records the ``msf.incremental`` span
        and the ``msf.incremental.calls`` counter.

    Returns
    -------
    RootedForest | None
        The forest :func:`~repro.rooted.msf.q_rooted_msf` would build
        from scratch over the union set — or ``None`` when exact
        reconstruction cannot be certified (tied, zero or non-finite
        candidate weights). ``None`` is not an error; it means
        "use the from-scratch path".
    """
    d = np.asarray(dist, dtype=np.float64)
    base_idx = sorted(int(s) for s in base_sensors)
    add_idx = sorted(int(s) for s in added)
    r_idx = [int(r) for r in depots]
    if tuple(r_idx) != base_forest.roots:
        raise GraphError("extend_q_rooted_msf: depots do not match forest roots")
    if set(base_idx) & set(add_idx):
        raise GraphError("extend_q_rooted_msf: base and added sensor sets overlap")
    if set(r_idx) & (set(base_idx) | set(add_idx)):
        raise GraphError("extend_q_rooted_msf: sensor and depot index sets overlap")
    spanned = base_forest.all_nodes() - set(r_idx)
    if spanned != set(base_idx):
        raise GraphError(
            "extend_q_rooted_msf: base_forest does not span base_sensors")
    if not add_idx:
        return base_forest

    g = np.asarray(base_idx + add_idx, dtype=np.intp)
    g.sort()
    m = g.size
    roots = np.asarray(r_idx, dtype=np.intp)

    o = ensure(obs)
    o.incr("msf.incremental.calls")
    with o.span("msf.incremental", sensors=m, added=len(add_idx)):
        # --- Candidate edges (local indices; node m is the super-root). ---
        add_loc = np.searchsorted(g, np.asarray(add_idx, dtype=np.intp))
        # Old tree edges, split into sensor-sensor pairs and root links.
        old_u: list[int] = []
        old_v: list[int] = []
        old_linked: list[int] = []  # sensors bridged to the super-root
        root_set = set(r_idx)
        for tree in base_forest.trees:
            for a, b in tree:
                if a in root_set:
                    old_linked.append(int(np.searchsorted(g, b)))
                elif b in root_set:  # not produced by q_rooted_msf; tolerated
                    old_linked.append(int(np.searchsorted(g, a)))
                else:
                    old_u.append(int(np.searchsorted(g, a)))
                    old_v.append(int(np.searchsorted(g, b)))
        # All sensor-sensor edges incident to an added sensor.
        au = np.repeat(add_loc, m)
        av = np.tile(np.arange(m, dtype=np.intp), add_loc.size)
        keep = au != av
        cu = np.concatenate([np.minimum(au, av)[keep],
                             np.minimum(old_u, old_v).astype(np.intp)
                             if old_u else np.empty(0, dtype=np.intp)])
        cv = np.concatenate([np.maximum(au, av)[keep],
                             np.maximum(old_u, old_v).astype(np.intp)
                             if old_u else np.empty(0, dtype=np.intp)])
        # Dedupe (an added-added pair is generated from both endpoints).
        _, uniq = np.unique(cu * m + cv, return_index=True)
        cu, cv = cu[uniq], cv[uniq]
        # Super-root candidates: previously linked sensors + all added.
        sr_nodes = np.unique(np.concatenate([
            np.asarray(old_linked, dtype=np.intp), add_loc]))
        rc = d[np.ix_(g[sr_nodes], roots)]
        best_root = np.full(m, -1, dtype=np.intp)
        best_root[sr_nodes] = rc.argmin(axis=1)

        # Sparse Prim over the candidate graph, super-root first; it
        # refuses (None) unless the candidate weights are distinct and positive.
        found = _sparse_prim(
            m + 1, m, np.concatenate([cu, sr_nodes]),
            np.concatenate([cv, np.full(sr_nodes.size, m, dtype=np.intp)]),
            np.concatenate([d[g[cu], g[cv]], rc.min(axis=1)]))
        if found is None:
            return None
        return _graph_forest(_uncontract(*found, best_root, roots.size), g, roots)
