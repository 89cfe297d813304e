"""Unit tests for :mod:`repro.geometry.distance`."""

import math

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry.distance import distance_matrix, path_length


class TestDistanceMatrix:
    def test_known_values(self):
        coords = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 8.0]])
        d = distance_matrix(coords)
        assert d[0, 1] == pytest.approx(5.0)
        assert d[1, 2] == pytest.approx(5.0)
        assert d[0, 2] == pytest.approx(8.0)

    def test_symmetric_zero_diagonal(self, rng):
        coords = rng.uniform(0, 100, size=(40, 2))
        d = distance_matrix(coords)
        np.testing.assert_allclose(d, d.T)
        np.testing.assert_array_equal(np.diag(d), np.zeros(40))

    def test_matches_scalar_euclidean(self, rng):
        coords = rng.uniform(0, 10, size=(10, 2))
        d = distance_matrix(coords)
        for i in range(10):
            for j in range(10):
                (xi, yi), (xj, yj) = coords[i], coords[j]
                assert d[i, j] == pytest.approx(math.hypot(xi - xj, yi - yj))

    def test_single_point(self):
        d = distance_matrix(np.array([[1.0, 2.0]]))
        assert d.shape == (1, 1) and d[0, 0] == 0.0

    @pytest.mark.parametrize("shape", [(0, 2), (3, 3), (4,)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(GeometryError):
            distance_matrix(np.zeros(shape))


class TestPathLength:
    def test_open_path(self):
        d = distance_matrix(np.array([[0, 0], [3, 4], [3, 0]], dtype=float))
        assert path_length(d, [0, 1, 2]) == pytest.approx(5.0 + 4.0)

    def test_closed_tour_adds_return_edge(self):
        d = distance_matrix(np.array([[0, 0], [3, 4], [3, 0]], dtype=float))
        assert path_length(d, [0, 1, 2], closed=True) == pytest.approx(5 + 4 + 3)

    def test_short_orders(self):
        d = distance_matrix(np.array([[0, 0], [1, 0]], dtype=float))
        assert path_length(d, []) == 0.0
        assert path_length(d, [1]) == 0.0
        assert path_length(d, [0], closed=True) == 0.0

