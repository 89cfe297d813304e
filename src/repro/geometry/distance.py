"""Dense Euclidean distance matrices and tour lengths.

The paper works on complete metric graphs, and its all-pairs solvers (Prim,
2-opt, the exact oracles) index a dense ``(n, n)`` float64 matrix.
Measuring a tour or a forest needs only its own edges, though:
:func:`edge_lengths` and :func:`closed_tour_length` read them straight from
the coordinates with the same per-pair arithmetic as :func:`distance_matrix`,
so the two agree bit for bit and a caller that only measures never pays the
``O(n^2)`` build.
All routines here are vectorised; no Python-level loops over node pairs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import GeometryError

__all__ = [
    "distance_matrix",
    "path_length",
    "edge_lengths",
    "closed_tour_length",
]


def distance_matrix(coords: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances of an ``(n, 2)`` coordinate array.

    Works one axis at a time and in place: ``dx = x_i - x_j`` and ``dy``
    likewise by broadcasting, then square, add and square-root into ``dx``'s
    buffer. The peak is two ``(n, n)`` float arrays (``2 n^2`` floats, one of
    them the result): 64 MB at n=2000, 400 MB at n=5000. Each entry is
    ``sqrt(dx*dx + dy*dy)``, the arithmetic :func:`closed_tour_length`
    repeats per edge.

    Parameters
    ----------
    coords:
        ``(n, 2)`` array of point coordinates.

    Returns
    -------
    numpy.ndarray
        ``(n, n)`` symmetric matrix with an exactly-zero diagonal.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise GeometryError(f"distance_matrix expects (n, 2) coordinates, got shape {coords.shape}")
    if coords.shape[0] == 0:
        raise GeometryError("distance_matrix: empty coordinate array")
    x, y = coords[:, 0], coords[:, 1]
    d = x[:, np.newaxis] - x[np.newaxis, :]
    dy = y[:, np.newaxis] - y[np.newaxis, :]
    np.multiply(d, d, out=d)
    np.multiply(dy, dy, out=dy)
    np.add(d, dy, out=d)
    np.sqrt(d, out=d)
    np.fill_diagonal(d, 0.0)
    return d


def path_length(dist: np.ndarray, order: Sequence[int], *, closed: bool = False) -> float:
    """Length of the walk visiting ``order`` under distance matrix ``dist``.

    Parameters
    ----------
    dist:
        ``(n, n)`` distance matrix.
    order:
        Node indices in visiting order. Fewer than two nodes gives length 0.
    closed:
        If true, add the edge from the last node back to the first (tour
        length rather than path length).
    """
    idx = np.asarray(order, dtype=np.intp)
    if idx.size < 2:
        return 0.0
    total = float(dist[idx[:-1], idx[1:]].sum())
    if closed:
        total += float(dist[idx[-1], idx[0]])
    return total


def edge_lengths(coords: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Lengths of the edges ``(u[i], v[i])``, read from node coordinates.

    Each is ``sqrt(dx*dx + dy*dy)`` as in :func:`distance_matrix` (negating
    a difference does not change its square), so ``edge_lengths(coords, u,
    v)[i] == distance_matrix(coords)[u[i], v[i]]`` bit for bit, at ``O(1)``
    per edge.
    """
    c = np.asarray(coords, dtype=np.float64)
    sq = c[u] - c[v]
    sq *= sq
    return np.sqrt(sq[:, 0] + sq[:, 1])


def closed_tour_length(coords: np.ndarray, order: Sequence[int]) -> float:
    """Closed-tour length of ``order``, measured from node coordinates.

    Bit-identical to ``path_length(distance_matrix(coords), order,
    closed=True)``: every edge is ``sqrt(dx*dx + dy*dy)`` as in
    :func:`edge_lengths` (inlined over one gathered walk, since the
    simulator calls this once per dispatch), the open walk is summed as one
    array, and the closing edge is added last. Costs ``O(m)`` for ``m``
    stops instead of the matrix's ``O(n^2)``. Fewer than two nodes gives
    length 0.
    """
    if len(order) < 2:
        return 0.0
    idx = np.asarray((*order, order[0]), dtype=np.intp)
    walk = np.asarray(coords, dtype=np.float64)[idx]
    sq = walk[:-1] - walk[1:]
    sq *= sq
    edges = np.sqrt(sq[:, 0] + sq[:, 1])
    return float(edges[:-1].sum()) + float(edges[-1])

