"""Unit tests for :mod:`repro.tsp.improve`."""

import numpy as np
import pytest

from repro.geometry.distance import distance_matrix
from repro.tsp.construct import mst_doubling_tour, nearest_neighbor_tour
from repro.tsp.improve import or_opt, two_opt
from repro.tsp.tour import Tour


@pytest.fixture
def cloud(rng):
    return distance_matrix(rng.uniform(0, 100, size=(30, 2)))


class TestTwoOpt:
    def test_never_worsens(self, cloud):
        t = nearest_neighbor_tour(cloud, 0, list(range(1, 30)))
        improved = two_opt(cloud, t)
        assert improved.cost(cloud) <= t.cost(cloud) + 1e-9

    def test_fixes_obvious_crossing(self):
        # Square visited in crossing order 0-2-1-3 (cost 2 + 2*sqrt2);
        # 2-opt must recover the perimeter (cost 4).
        d = distance_matrix(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))
        crossed = Tour(depot=0, order=(0, 2, 1, 3))
        fixed = two_opt(d, crossed)
        assert fixed.cost(d) == pytest.approx(4.0)

    def test_preserves_node_set_and_depot(self, cloud):
        t = nearest_neighbor_tour(cloud, 0, list(range(1, 30)))
        improved = two_opt(cloud, t)
        assert improved.visited() == t.visited()
        assert improved.order[0] == 0

    def test_short_tours_unchanged(self, cloud):
        for order in [(0,), (0, 1), (0, 1, 2)]:
            t = Tour(depot=0, order=order)
            assert two_opt(cloud, t) == t

    def test_idempotent_at_local_optimum(self, cloud):
        t = two_opt(cloud, nearest_neighbor_tour(cloud, 0, list(range(1, 30))))
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


class TestOrOpt:
    def test_never_worsens(self, cloud):
        t = mst_doubling_tour(cloud, 0, list(range(1, 30)))
        improved = or_opt(cloud, t)
        assert improved.cost(cloud) <= t.cost(cloud) + 1e-9

    def test_preserves_node_set_and_depot(self, cloud):
        t = mst_doubling_tour(cloud, 0, list(range(1, 30)))
        improved = or_opt(cloud, t)
        assert improved.visited() == t.visited()
        assert improved.order[0] == 0

    def test_relocates_stranded_node(self):
        # Points on a line; order strands node 4 (x=40) at the end.
        coords = np.array([[0, 0], [10, 0], [20, 0], [30, 0], [40, 0], [25, 1]],
                          dtype=float)
        d = distance_matrix(coords)
        bad = Tour(depot=0, order=(0, 1, 2, 3, 5, 4))
        improved = or_opt(d, bad)
        assert improved.cost(d) < bad.cost(d)

    def test_tiny_tours_unchanged(self, cloud):
        t = Tour(depot=0, order=(0, 1))
        assert or_opt(cloud, t) == t

    def test_deterministic_tie_break_lowest_j_unflipped(self):
        # Hand-built symmetric metric with an *exact* tie: relocating node
        # 1 after node 2 (j=2) and after node 3 (j=3) both gain 12. The
        # documented tie-break (ascending j scan with strict > acceptance,
        # un-flipped orientation first) must pick the LOWEST j, so node 1
        # lands right after node 2 — a regressed scan order would yield
        # (0, 2, 3, 1, 4) instead. Pinning this keeps refined tours
        # bit-reproducible and is the contract the vectorised scan shares
        # with its loop-form oracle (repro.check.oracles).
        d = np.zeros((5, 5))

        def sym(i, j, w):
            d[i, j] = d[j, i] = w

        sym(0, 1, 10); sym(1, 2, 10); sym(0, 2, 1); sym(1, 3, 2)
        sym(2, 3, 5); sym(1, 4, 10); sym(3, 4, 5); sym(0, 4, 5)
        sym(0, 3, 6); sym(2, 4, 6)
        tour = Tour(depot=0, order=(0, 1, 2, 3, 4))

        # The planted tie really is a tie.
        save = d[0, 1] + d[1, 2] - d[0, 2]
        gain_after_2 = save - (d[2, 1] + d[1, 3] - d[2, 3])
        gain_after_3 = save - (d[3, 1] + d[1, 4] - d[3, 4])
        assert gain_after_2 == gain_after_3 == 12.0

        improved = or_opt(d, tour, segment_lengths=(1,))
        assert improved.order == (0, 2, 1, 3, 4)
        # The full default pass converges to the same tour, and the
        # loop-form oracle makes the same choice.
        assert or_opt(d, tour).order == (0, 2, 1, 3, 4)
        from repro.check.oracles import or_opt_reference
        assert or_opt_reference(d, tour).order == (0, 2, 1, 3, 4)


class TestPipelines:
    def test_two_opt_then_or_opt_composes(self, cloud):
        t0 = nearest_neighbor_tour(cloud, 0, list(range(1, 30)))
        t1 = two_opt(cloud, t0)
        t2 = or_opt(cloud, t1)
        t3 = two_opt(cloud, t2)
        costs = [t.cost(cloud) for t in (t0, t1, t2, t3)]
        assert costs == sorted(costs, reverse=True) or all(
            costs[i] >= costs[i + 1] - 1e-9 for i in range(3))
