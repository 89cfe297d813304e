"""Minimum spanning trees: dense Prim and sparse Kruskal.

The paper's Algorithm 1 computes an MST of a *complete* contracted graph and
charges ``O(n^2)`` for it; :func:`prim_mst` matches that bound with a fully
vectorised inner loop (array minima instead of a heap — on dense metric
instances this is both asymptotically right and constant-factor fast in
NumPy, per the HPC guides' "vectorise the bottleneck" rule).

:func:`kruskal_mst` handles explicit sparse edge lists, which the adaptive
patch phase needs (its auxiliary graphs ``G^(k)`` contain only
sensor-sensor and sensor-root edges, not root-root ones).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import GraphError
from repro.graphs.unionfind import UnionFind
from repro.obs.instrument import Instrumentation, ensure

__all__ = ["prim_mst", "kruskal_mst", "mst_weight"]

Edge = tuple[int, int]


def prim_mst(dist: np.ndarray, *, root: int = 0,
             obs: Instrumentation | None = None) -> list[Edge]:
    """MST of a complete graph given by dense distance matrix ``dist``.

    Classic array-based Prim: maintain for every out-of-tree node its
    cheapest connection to the tree; each of the ``n - 1`` rounds does two
    vectorised ``O(n)`` passes (argmin + relax), for ``O(n^2)`` total.

    Parameters
    ----------
    dist:
        ``(n, n)`` symmetric distance matrix. ``inf`` entries are allowed and
        mean "no edge"; if they disconnect the graph a :class:`GraphError`
        is raised.
    root:
        Node to grow the tree from (result is root-independent; the parameter
        exists so rooted callers get their preferred orientation for free).
    obs:
        Optional instrumentation context; records a ``kernel.prim`` span
        and the ``kernel.prim.calls`` counter.

    Returns
    -------
    list[tuple[int, int]]
        ``n - 1`` edges as ``(parent, child)`` pairs, oriented away from
        ``root`` in discovery order. Empty when ``n == 1``.
    """
    d = np.asarray(dist, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise GraphError(f"prim_mst: matrix must be square, got shape {d.shape}")
    n = d.shape[0]
    if n == 0:
        raise GraphError("prim_mst: empty graph")
    if not (0 <= root < n):
        raise GraphError(f"prim_mst: root {root} out of range for n={n}")
    o = ensure(obs)
    o.incr("kernel.prim.calls")
    with o.span("kernel.prim", n=n):
        if n == 1:
            return []
        in_tree = np.zeros(n, dtype=bool)
        in_tree[root] = True
        # best[v] = cheapest edge weight from v into the current tree;
        # best_from[v] = the tree endpoint realising it.
        best = d[root].copy()
        best[root] = np.inf
        best_from = np.full(n, root, dtype=np.intp)

        edges: list[Edge] = []
        for _ in range(n - 1):
            v = int(np.argmin(best))
            if not np.isfinite(best[v]):
                raise GraphError("prim_mst: graph is disconnected (inf frontier)")
            edges.append((int(best_from[v]), v))
            in_tree[v] = True
            best[v] = np.inf
            # Relax: nodes for which v now offers a cheaper connection.
            row = d[v]
            better = (row < best) & ~in_tree
            best[better] = row[better]
            best_from[better] = v
        return edges


def kruskal_mst(n: int, edges: Iterable[tuple[int, int, float]]) -> list[Edge]:
    """Minimum spanning forest of an explicit weighted edge list.

    Parameters
    ----------
    n:
        Number of nodes (labelled ``0..n-1``).
    edges:
        ``(u, v, w)`` triples. Self-loops are ignored.

    Returns
    -------
    list[tuple[int, int]]
        Edges of a minimum spanning *forest* — if the input is disconnected
        each component gets its own tree (callers that require spanning
        connectivity should check ``len(result) == n - 1``).
    """
    if n < 0:
        raise GraphError(f"kruskal_mst: n must be non-negative, got {n}")
    triples = [(w, u, v) for (u, v, w) in edges if u != v]
    for w, u, v in triples:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"kruskal_mst: edge ({u}, {v}) out of range for n={n}")
    triples.sort()
    uf = UnionFind(n)
    out: list[Edge] = []
    for _, u, v in triples:
        if uf.union(u, v):
            out.append((u, v))
            if len(out) == n - 1:
                break
    return out


def mst_weight(dist: np.ndarray, edges: Sequence[Edge]) -> float:
    """Total weight of ``edges`` under ``dist`` (convenience for bounds)."""
    if not edges:
        return 0.0
    idx = np.asarray(edges, dtype=np.intp)
    return float(np.asarray(dist)[idx[:, 0], idx[:, 1]].sum())
