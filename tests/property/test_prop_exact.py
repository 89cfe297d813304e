"""Property-based tests pinning the heuristics against exact optima.

These are the strongest guarantees in the suite: on hypothesis-generated
small instances, Algorithm 2's measured ratio against the *true* optimum
(not a lower bound) must stay within the proven factor 2, and the local
search must land within 2x as well (it starts from Algorithm 2's output).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.distance import distance_matrix
from repro.rooted.exact import exact_q_rooted_tsp
from repro.rooted.qtsp import q_rooted_tsp, tours_total_cost
from repro.tsp.exact import held_karp_tsp
from repro.tsp.improve import two_opt


@st.composite
def small_clouds(draw, min_n=3, max_n=10):
    n = draw(st.integers(min_n, max_n))
    pts = draw(st.lists(
        st.tuples(st.floats(0, 500, allow_nan=False, width=32),
                  st.floats(0, 500, allow_nan=False, width=32)),
        min_size=n, max_size=n))
    return distance_matrix(np.asarray(pts, dtype=np.float64))


class TestAgainstExactTsp:
    @given(small_clouds())
    @settings(max_examples=20, deadline=None)
    def test_two_opt_closes_most_of_the_gap(self, dist):
        """2-opt applied to Algorithm 2's single-depot tour stays within 2x
        (monotone from a 2x start) and never beats the optimum."""
        n = dist.shape[0]
        opt = held_karp_tsp(dist, 0, list(range(1, n))).cost(dist)
        refined = two_opt(dist, q_rooted_tsp(dist, list(range(1, n)), [0])[0])
        assert opt - 1e-6 <= refined.cost(dist) <= 2 * opt + 1e-6


class TestAgainstExactQRooted:
    @given(small_clouds(min_n=4, max_n=9), st.integers(1, 2))
    @settings(max_examples=20, deadline=None)
    def test_algorithm2_within_factor_2_of_true_optimum(self, dist, q):
        """Theorem 1 measured against the real optimum, not the MSF bound."""
        n = dist.shape[0]
        if n - q < 1:
            return
        sensors = list(range(n - q))
        depots = list(range(n - q, n))
        opt = tours_total_cost(dist, exact_q_rooted_tsp(dist, sensors, depots))
        approx = tours_total_cost(dist, q_rooted_tsp(dist, sensors, depots))
        assert opt - 1e-6 <= approx <= 2 * opt + 1e-6
