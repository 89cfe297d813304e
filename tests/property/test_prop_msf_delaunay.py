"""Property-based tests: planning from coordinates equals planning from the matrix.

:func:`repro.rooted.msf.q_rooted_msf` with ``coords=`` solves sets of at
least :data:`~repro.rooted.msf.DELAUNAY_MIN_SENSORS` sensors over a
Delaunay candidate graph; :func:`repro.rooted.refine.refine_tours` with
``coords=`` builds each tour's own matrix. Both must reproduce the
full-matrix answer exactly — forests edge for edge in discovery order,
tours stop for stop, weights bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.distance import distance_matrix, edge_lengths
from repro.network.builder import build_paper_network
from repro.rooted.msf import DELAUNAY_MIN_SENSORS, q_rooted_msf
from repro.rooted.qtsp import q_rooted_tsp
from repro.rooted.refine import refine_tours


@st.composite
def point_sets(draw):
    """Float point sets of at least the Delaunay floor, with the sensors a
    random subset of the nodes and the depots anywhere in the indexing."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(DELAUNAY_MIN_SENSORS, DELAUNAY_MIN_SENSORS + 160))
    q = draw(st.integers(1, 5))
    extra = draw(st.integers(0, 40))
    if draw(st.booleans()):
        coords = rng.uniform(0.0, draw(st.sampled_from([1.0, 100.0, 1e4])),
                             size=(m + q + extra, 2))
    else:  # Gaussian hotspots
        centres = rng.uniform(0.0, 1000.0, size=(4, 2))
        coords = (centres[rng.integers(0, 4, size=m + q + extra)]
                  + rng.normal(0.0, 40.0, size=(m + q + extra, 2)))
    order = rng.permutation(m + q + extra)
    depots = [int(i) for i in order[:q]]
    sensors = sorted(int(i) for i in order[q:q + m])
    return coords, sensors, depots


class TestCoordsForestEqualsDense:
    @given(point_sets())
    @settings(max_examples=25, deadline=None)
    def test_forest_identical(self, instance):
        coords, sensors, depots = instance
        dense = q_rooted_msf(distance_matrix(coords), sensors, depots)
        assert q_rooted_msf(None, sensors, depots, coords=coords) == dense

    @given(st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["uniform", "clustered", "grid"]))
    @settings(max_examples=6, deadline=None)
    def test_paper_deployments(self, seed, deployment):
        net = build_paper_network(n=DELAUNAY_MIN_SENSORS + 88, q=5, seed=seed,
                                  deployment=deployment)
        sensors = list(range(net.n))
        depots = [int(i) for i in net.depot_indices]
        assert (q_rooted_msf(None, sensors, depots, coords=net.coordinates)
                == q_rooted_msf(net.dist, sensors, depots))


class TestCoordsRefineEqualsDense:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(20, 120), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_refined_tours_identical(self, seed, n, q):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0.0, 100.0, size=(n + q, 2))
        dist = distance_matrix(coords)
        tours = q_rooted_tsp(dist, list(range(n)), list(range(n, n + q)))
        assert (refine_tours(None, tours, coords=coords)
                == refine_tours(dist, tours))

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 60), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_forest_weight_bit_identical(self, seed, n, q):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(-1e5, 1e5, size=(n + q, 2))
        dist = distance_matrix(coords)
        forest = q_rooted_msf(dist, list(range(n)), list(range(n, n + q)))
        assert forest.weight(coords=coords) == forest.weight(dist)
        u, v = rng.integers(0, n + q, size=(2, 30))
        assert np.array_equal(edge_lengths(coords, u, v), dist[u, v])
