"""Planar geometry substrate: points, seeded RNG, distance matrices.

Every instance the paper's algorithms operate on is a finite set of points in
a two-dimensional deployment area under the Euclidean metric. This package
provides the small, fully vectorised toolkit the rest of the library builds
on:

* :class:`~repro.geometry.point.Point` — an immutable 2-D point.
* :func:`~repro.geometry.distance.distance_matrix` — dense pairwise
  Euclidean distances (NumPy broadcasting, no Python loops).
* :func:`~repro.geometry.rng.make_rng` / :func:`~repro.geometry.rng.spawn` —
  deterministic random-generator plumbing used by all stochastic components.
* :class:`~repro.geometry.bbox.Rect` — the rectangular deployment area.
"""

from repro.geometry.bbox import Rect
from repro.geometry.distance import distance_matrix, path_length
from repro.geometry.point import Point, points_to_array
from repro.geometry.rng import make_rng, spawn

__all__ = [
    "Point",
    "Rect",
    "distance_matrix",
    "make_rng",
    "path_length",
    "points_to_array",
    "spawn",
]
