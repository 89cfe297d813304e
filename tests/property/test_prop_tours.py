"""Property-based tests for Algorithm 2's tour walk and 2-opt."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.distance import distance_matrix
from repro.graphs.mst import mst_weight, prim_mst
from repro.rooted.qtsp import q_rooted_tsp
from repro.tsp.improve import two_opt
from repro.tsp.tour import Tour

seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def clouds(draw, min_n=2, max_n=18):
    n = draw(st.integers(min_n, max_n))
    pts = draw(st.lists(
        st.tuples(st.floats(0, 500, allow_nan=False, width=32),
                  st.floats(0, 500, allow_nan=False, width=32)),
        min_size=n, max_size=n))
    return distance_matrix(np.asarray(pts, dtype=np.float64))


def _shuffled(n, seed):
    """A seeded random tour over nodes ``0..n-1``, depot 0 first."""
    rest = np.random.default_rng(seed).permutation(range(1, n))
    return Tour(depot=0, order=(0, *(int(v) for v in rest)))


class TestConstructorProperties:
    @given(clouds())
    @settings(max_examples=40, deadline=None)
    def test_mst_doubling_bound(self, dist):
        """Algorithm 2 with one depot walks the MST: at most twice its weight."""
        n = dist.shape[0]
        t = q_rooted_tsp(dist, list(range(1, n)), [0])[0]
        w = mst_weight(dist, prim_mst(dist))
        assert t.cost(dist) <= 2 * w + 1e-6


class TestImproverProperties:
    @given(clouds(min_n=4), seeds)
    @settings(max_examples=40, deadline=None)
    def test_two_opt_monotone_and_permutation_preserving(self, dist, seed):
        t = _shuffled(dist.shape[0], seed)
        improved = two_opt(dist, t)
        assert improved.cost(dist) <= t.cost(dist) + 1e-9
        assert sorted(improved.order) == sorted(t.order)
        assert improved.order[0] == 0

    @given(clouds(min_n=4, max_n=12), seeds)
    @settings(max_examples=25, deadline=None)
    def test_two_opt_result_is_2opt_local_optimum(self, dist, seed):
        """After convergence no single 2-opt move may improve further."""
        t = two_opt(dist, _shuffled(dist.shape[0], seed), max_rounds=200)
        p = list(t.order)
        k = len(p)
        base = t.cost(dist)
        for i in range(1, k - 1):
            for j in range(i + 1, k):
                q = p[:i] + p[i:j + 1][::-1] + p[j + 1:]
                assert t.with_order(q).cost(dist) >= base - 1e-7
