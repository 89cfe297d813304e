"""Unit tests for :mod:`repro.tsp.construct`: Algorithm 2's tour walk.

With a single root, :func:`tours_from_forest` over the q-rooted MSF is the
classic MST-doubling tour: the MST of the node set walked in DFS preorder.
"""

import numpy as np
import pytest

from repro.geometry.distance import distance_matrix
from repro.graphs.mst import mst_weight, prim_mst
from repro.rooted.msf import q_rooted_msf
from repro.tsp.construct import tours_from_forest


@pytest.fixture
def cloud(rng):
    coords = rng.uniform(0, 100, size=(25, 2))
    return distance_matrix(coords)


def _single_root_tour(dist, depot, nodes):
    return tours_from_forest(q_rooted_msf(dist, nodes, [depot]))[0]


class TestMstDoubling:
    def test_within_twice_mst(self, cloud):
        t = _single_root_tour(cloud, 0, list(range(1, 25)))
        assert t.visited() == set(range(25)) and t.order[0] == 0
        mst_w = mst_weight(cloud, prim_mst(cloud))
        assert t.cost(cloud) <= 2 * mst_w + 1e-9

    def test_collinear_points_optimal(self):
        # On a line the doubled-MST tour is exactly optimal (out and back).
        coords = np.array([[float(i), 0.0] for i in range(6)])
        d = distance_matrix(coords)
        t = _single_root_tour(d, 0, [1, 2, 3, 4, 5])
        assert t.cost(d) == pytest.approx(10.0)

    def test_deterministic(self, cloud):
        a = _single_root_tour(cloud, 0, list(range(1, 25)))
        b = _single_root_tour(cloud, 0, list(range(1, 25)))
        assert a.order == b.order
