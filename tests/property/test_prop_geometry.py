"""Property-based tests for the geometry substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.bbox import Rect
from repro.geometry.distance import closed_tour_length, distance_matrix, path_length
from repro.geometry.point import Point

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=32)
big = st.floats(-1e7, 1e7, allow_nan=False, allow_infinity=False)


@st.composite
def coords_with_repeats(draw, min_size=1, max_size=24):
    """``(n, 2)`` coordinates up to 1e7 in magnitude, some coincident."""
    pts = draw(st.lists(st.tuples(big, big), min_size=min_size, max_size=max_size))
    dupes = draw(st.lists(st.tuples(st.integers(0, len(pts) - 1),
                                    st.integers(0, len(pts) - 1)), max_size=4))
    for src, dst in dupes:
        pts[dst] = pts[src]
    return np.asarray(pts, dtype=np.float64)


def _einsum_distance_matrix(coords):
    """The historical ``(n, n, 2)`` difference + einsum formulation."""
    diff = coords[:, np.newaxis, :] - coords[np.newaxis, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(d, 0.0)
    return d


class TestPointProperties:
    @given(finite, finite, finite, finite)
    def test_distance_symmetry_and_identity(self, x1, y1, x2, y2):
        a, b = Point(x1, y1), Point(x2, y2)
        assert a.distance_to(b) == b.distance_to(a)
        assert a.distance_to(a) == 0.0

    @given(finite, finite, finite, finite, finite, finite)
    def test_triangle_inequality(self, x1, y1, x2, y2, x3, y3):
        a, b, c = Point(x1, y1), Point(x2, y2), Point(x3, y3)
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-6

    @given(finite, finite, finite, finite)
    def test_midpoint_equidistant(self, x1, y1, x2, y2):
        a, b = Point(x1, y1), Point(x2, y2)
        m = a.midpoint(b)
        assert abs(m.distance_to(a) - m.distance_to(b)) <= 1e-6 * (
            1 + a.distance_to(b))


class TestDistanceMatrixProperties:
    @given(st.lists(st.tuples(st.floats(0, 1000, allow_nan=False, width=32),
                              st.floats(0, 1000, allow_nan=False, width=32)),
                    min_size=2, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_always_a_metric(self, pts):
        d = distance_matrix(np.asarray(pts, dtype=np.float64))
        assert np.array_equal(d, d.T)
        assert np.all(d >= 0.0)
        assert np.all(np.diag(d) == 0.0)
        # d[i, k] <= d[i, j] + d[j, k] for all i, j, k, one slab per j.
        for j in range(d.shape[0]):
            via_j = d[:, j][:, np.newaxis] + d[j, :][np.newaxis, :]
            assert np.all(d <= via_j + 1e-9 + 1e-9 * d)

    @given(st.lists(st.tuples(st.floats(0, 100, allow_nan=False, width=32),
                              st.floats(0, 100, allow_nan=False, width=32)),
                    min_size=3, max_size=10),
           st.permutations(list(range(3))))
    @settings(max_examples=30, deadline=None)
    def test_path_length_reversal_invariance(self, pts, perm):
        d = distance_matrix(np.asarray(pts[:3], dtype=np.float64))
        order = list(perm)
        fwd = path_length(d, order, closed=True)
        rev = path_length(d, order[::-1], closed=True)
        assert abs(fwd - rev) <= 1e-9 * (1 + fwd)

    @given(coords_with_repeats(max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_in_place_build_equals_einsum_formula(self, coords):
        assert np.array_equal(distance_matrix(coords), _einsum_distance_matrix(coords))


class TestClosedTourLengthProperties:
    @given(coords_with_repeats(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_the_matrix(self, coords, data):
        order = data.draw(st.permutations(range(len(coords))))
        order = order[:data.draw(st.integers(1, len(order)))]
        want = path_length(distance_matrix(coords), order, closed=True)
        assert closed_tour_length(coords, order) == want

    @given(coords_with_repeats(min_size=1, max_size=1))
    def test_one_node_tour_costs_zero(self, coords):
        assert closed_tour_length(coords, [0]) == 0.0

    @given(coords_with_repeats(min_size=2, max_size=2))
    def test_two_node_tour_is_there_and_back(self, coords):
        d = distance_matrix(coords)
        assert closed_tour_length(coords, [1, 0]) == d[1, 0] + d[0, 1]
        assert closed_tour_length(coords, [0, 1]) == path_length(d, [0, 1], closed=True)


class TestRectProperties:
    @given(st.floats(1, 1e4, allow_nan=False, width=32), st.integers(0, 200),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_samples_always_inside(self, side, n, seed):
        r = Rect.square(float(side))
        pts = r.sample(n, rng=seed)
        assert pts.shape == (n, 2)
        for x, y in pts:
            assert r.contains(Point(float(x), float(y)))

    @given(st.floats(1, 1e4, allow_nan=False, width=32))
    def test_center_inside_and_diagonal_bounds_pairs(self, side):
        r = Rect.square(float(side))
        assert r.contains(r.center)
        a = r.sample(16, rng=0)
        d = distance_matrix(a)
        assert d.max() <= r.diagonal + 1e-6
