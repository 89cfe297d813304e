"""Rooted forests: the output type of the q-rooted MSF algorithm.

A :class:`RootedForest` is a set of vertex-disjoint trees, each anchored at
a distinct *root* (a depot in the paper's setting), jointly spanning a given
node set. It knows its own weight under a distance matrix and can hand each
tree to the tour-construction step of Algorithm 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.errors import GraphError
from repro.geometry.distance import edge_lengths
from repro.graphs.traversal import adjacency_from_edges, preorder

__all__ = ["RootedForest"]

Edge = tuple[int, int]


@dataclass(frozen=True)
class RootedForest:
    """Vertex-disjoint trees, one per root.

    Parameters
    ----------
    roots:
        The distinct root node ids, in depot order (tree ``l`` belongs to
        charger ``l``).
    trees:
        ``trees[l]`` is the edge list of the tree rooted at ``roots[l]``;
        an empty list means the root is isolated (that charger stays home).
    """

    roots: tuple[int, ...]
    trees: tuple[tuple[Edge, ...], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if len(set(self.roots)) != len(self.roots):
            raise GraphError(f"RootedForest: duplicate roots in {self.roots}")
        if len(self.trees) != len(self.roots):
            raise GraphError(
                f"RootedForest: {len(self.roots)} roots but {len(self.trees)} trees")
        claimed: set[int] = set()
        for root, tree in zip(self.roots, self.trees):
            nodes = self._tree_nodes(root, tree)
            overlap = claimed & nodes
            if overlap:
                raise GraphError(f"RootedForest: trees share nodes {sorted(overlap)}")
            claimed |= nodes

    @staticmethod
    def _tree_nodes(root: int, tree: Sequence[Edge]) -> set[int]:
        nodes = {root}
        for u, v in tree:
            nodes.add(u)
            nodes.add(v)
        return nodes

    @property
    def q(self) -> int:
        """Number of trees (= number of chargers)."""
        return len(self.roots)

    def nodes_of(self, l: int) -> set[int]:
        """All nodes of tree ``l``, including its root."""
        return self._tree_nodes(self.roots[l], self.trees[l])

    def all_nodes(self) -> set[int]:
        """Union of node sets over all trees."""
        out: set[int] = set()
        for l in range(self.q):
            out |= self.nodes_of(l)
        return out

    def all_edges(self) -> list[Edge]:
        """Concatenation of the trees' edge lists."""
        return [e for tree in self.trees for e in tree]

    def weight(self, dist: np.ndarray | None = None, *,
               coords: np.ndarray | None = None) -> float:
        """Total edge weight of the forest under distance matrix ``dist``
        or, with ``coords=``, measured from the ``(n, 2)`` node
        coordinates (bit-identical, and no matrix needed). Pass exactly
        one."""
        if (dist is None) == (coords is None):
            raise TypeError("RootedForest.weight: pass exactly one of dist or coords=")
        edges = self.all_edges()
        if not edges:
            return 0.0
        idx = np.asarray(edges, dtype=np.intp)
        if coords is not None:
            return float(edge_lengths(coords, idx[:, 0], idx[:, 1]).sum())
        return float(np.asarray(dist)[idx[:, 0], idx[:, 1]].sum())

    def preorder_of(self, l: int) -> list[int]:
        """DFS preorder of tree ``l`` from its root (Algorithm 2's tour order)."""
        root = self.roots[l]
        adj = adjacency_from_edges(self.trees[l], nodes=[root])
        return preorder(adj, root)

    def validate_spanning(self, required: Iterable[int]) -> None:
        """Raise :class:`GraphError` unless every node in ``required`` is
        covered by some tree."""
        missing = set(required) - self.all_nodes()
        if missing:
            raise GraphError(f"RootedForest: nodes not spanned: {sorted(missing)}")

