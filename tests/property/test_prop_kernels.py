"""Property-based tests for the kernel layer (hypothesis).

Two families:

* **Cross-algorithm**: Prim (dense matrix) and Kruskal (sparse edge list)
  are independent MST algorithms; on the same metric their trees must
  weigh exactly the same (the tree itself may differ under ties, the
  weight cannot).
* **Production vs oracle**: the 2-opt in :mod:`repro.tsp.improve` must be
  *move-for-move* identical to its oracle, the full-matrix scan, on tours
  drawn across its neighbour-list width, over matrices exactly the tour's
  size and over subsets of larger ones, on uniform and tie-heavy
  integer-lattice points.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.distance import distance_matrix
from repro.graphs.mst import kruskal_mst, mst_weight, prim_mst
from repro.tsp.improve import two_opt, two_opt_scan
from repro.tsp.tour import Tour


@st.composite
def point_metrics(draw, min_n=2, max_n=20):
    """A Euclidean distance matrix over random points in the plane."""
    n = draw(st.integers(min_n, max_n))
    pts = draw(st.lists(
        st.tuples(st.floats(0, 500, allow_nan=False, width=32),
                  st.floats(0, 500, allow_nan=False, width=32)),
        min_size=n, max_size=n))
    return distance_matrix(np.asarray(pts, dtype=np.float64))


@st.composite
def tour_instances(draw, min_stops=3, max_stops=95):
    """A tour of ``k = stops + 1`` nodes and a matrix it indexes into.

    The matrix is either exactly the tour's nodes or a larger one the tour
    visits a subset of (the pruned 2-opt's two indexing branches), over
    uniform points or integer-lattice points, whose many equal distances
    exercise the tie-breaks.
    """
    k = draw(st.integers(min_stops, max_stops)) + 1
    extra = draw(st.sampled_from([0, 0, 1, 9]))
    lattice = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = k + extra
    if lattice:
        pts = rng.integers(0, 12, size=(n, 2)).astype(np.float64)
    else:
        pts = rng.uniform(0, 500, size=(n, 2))
    nodes = rng.choice(n, size=k, replace=False) if extra else rng.permutation(n)
    order = tuple(int(v) for v in nodes)
    return distance_matrix(pts), Tour(depot=order[0], order=order)


class TestPrimVsKruskal:
    @given(point_metrics())
    @settings(max_examples=80, deadline=None)
    def test_equal_weight_spanning_trees(self, dist):
        """Satellite oracle: two independent MST algorithms, one weight."""
        n = dist.shape[0]
        prim_edges = prim_mst(dist)
        sparse = [(i, j, float(dist[i, j]))
                  for i in range(n) for j in range(i + 1, n)]
        kruskal_edges = kruskal_mst(n, sparse)
        assert len(prim_edges) == len(kruskal_edges) == n - 1
        assert np.isclose(mst_weight(dist, prim_edges),
                          mst_weight(dist, kruskal_edges),
                          rtol=1e-12, atol=1e-9)


class TestFastBackendExact:
    @given(tour_instances())
    @settings(max_examples=80, deadline=None)
    def test_two_opt_identical(self, instance):
        dist, tour = instance
        assert two_opt(dist, tour) == two_opt_scan(dist, tour)

