"""Graph kernels: MSTs, rooted forests, traversals.

These are the combinatorial primitives under the paper's Algorithms 1 and 2:

* :func:`~repro.graphs.mst.prim_mst` — dense-matrix Prim in ``O(n^2)``
  (exactly the complexity the paper's analysis charges for the MST step).
* :func:`~repro.graphs.mst.kruskal_mst` — sparse Kruskal over an explicit
  edge list, the independent oracle the tests check Prim against.
* :class:`~repro.graphs.unionfind.UnionFind` — path-halving + union by size.
* :class:`~repro.graphs.forest.RootedForest` — the output type of the
  q-rooted MSF algorithm: disjoint trees, each anchored at a depot.
* :func:`~repro.graphs.traversal.preorder` — DFS preorder of a tree, which is
  the "double + Euler + shortcut" composite in one pass.
"""

from repro.graphs.forest import RootedForest
from repro.graphs.mst import kruskal_mst, mst_weight, prim_mst
from repro.graphs.traversal import adjacency_from_edges, preorder
from repro.graphs.unionfind import UnionFind

__all__ = [
    "RootedForest",
    "UnionFind",
    "adjacency_from_edges",
    "kruskal_mst",
    "mst_weight",
    "preorder",
    "prim_mst",
]
