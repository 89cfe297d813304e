"""Tour construction: the paper's Algorithm 2 step on a solved forest.

:func:`tours_from_forest` applies the per-tree step of Algorithm 2 —
double the tree, take an Eulerian circuit, shortcut — to every tree of a
rooted forest, implemented as a single DFS preorder (provably the same
result on trees).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.tsp.tour import Tour

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (graphs -> tsp)
    from repro.graphs.forest import RootedForest

__all__ = ["tours_from_forest"]


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
