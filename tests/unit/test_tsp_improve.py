"""Unit tests for :mod:`repro.tsp.improve`."""

import numpy as np
import pytest

from repro.geometry.distance import distance_matrix
from repro.tsp.improve import two_opt
from repro.tsp.tour import Tour


@pytest.fixture
def cloud(rng):
    return distance_matrix(rng.uniform(0, 100, size=(30, 2)))


@pytest.fixture
def shuffled(rng):
    """A seeded random tour over the 30 cloud nodes, depot 0 first."""
    return Tour(depot=0, order=(0, *(int(v) for v in rng.permutation(range(1, 30)))))


class TestTwoOpt:
    def test_never_worsens(self, cloud, shuffled):
        improved = two_opt(cloud, shuffled)
        assert improved.cost(cloud) <= shuffled.cost(cloud) + 1e-9

    def test_fixes_obvious_crossing(self):
        # Square visited in crossing order 0-2-1-3 (cost 2 + 2*sqrt2);
        # 2-opt must recover the perimeter (cost 4).
        d = distance_matrix(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))
        crossed = Tour(depot=0, order=(0, 2, 1, 3))
        fixed = two_opt(d, crossed)
        assert fixed.cost(d) == pytest.approx(4.0)

    def test_preserves_node_set_and_depot(self, cloud, shuffled):
        improved = two_opt(cloud, shuffled)
        assert improved.visited() == shuffled.visited()
        assert improved.order[0] == 0

    def test_short_tours_unchanged(self, cloud):
        for order in [(0,), (0, 1), (0, 1, 2)]:
            t = Tour(depot=0, order=order)
            assert two_opt(cloud, t) == t

    def test_idempotent_at_local_optimum(self, cloud, shuffled):
        t = two_opt(cloud, shuffled, max_rounds=200)
        again = two_opt(cloud, t)
        assert again.cost(cloud) == pytest.approx(t.cost(cloud))

    def test_deterministic_tie_break_lowest_j(self):
        """Per anchor, the scan is best-improvement via ``argmin``; exactly
        tied improving moves must resolve to the LOWEST candidate ``j``
        (argmin's first minimal index), keeping refined tours reproducible.

        Hand-built integer matrix: for anchor i=1 of tour (0,1,2,3,4) the
        candidate moves j=2 and j=3 both have delta = -2 (exact in integer
        arithmetic) and j=4 is non-improving; after the j=2 reversal no
        further improving move exists anywhere.
        """
        from repro.obs import Instrumentation

        d = np.array([
            [0, 10, 5, 5, 5],
            [10, 0, 6, 7, 7],
            [5, 6, 0, 4, 6],
            [5, 7, 4, 0, 4],
            [5, 7, 6, 4, 0],
        ], dtype=float)
        # Pre-condition of the scenario: the two candidate deltas are tied.
        delta_j2 = (d[0, 2] + d[1, 3]) - (d[0, 1] + d[2, 3])
        delta_j3 = (d[0, 3] + d[1, 4]) - (d[0, 1] + d[3, 4])
        assert delta_j2 == delta_j3 == -2.0

        obs = Instrumentation()
        out = two_opt(d, Tour(depot=0, order=(0, 1, 2, 3, 4)), obs=obs)
        # Lowest j wins: segment p[1:3] reversed, not p[1:4].
        assert out.order == (0, 2, 1, 3, 4)
        assert obs.counters["two_opt.moves"] == 1

