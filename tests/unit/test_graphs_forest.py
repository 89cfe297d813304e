"""Unit tests for :mod:`repro.graphs.forest`."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs.forest import RootedForest


@pytest.fixture
def simple_forest():
    """Roots 10, 11; tree0 = 10-0-1, tree1 = 11-2."""
    return RootedForest(roots=(10, 11), trees=(((10, 0), (0, 1)), ((11, 2),)))


@pytest.fixture
def dist6x12():
    d = np.zeros((12, 12))
    for i in range(12):
        for j in range(12):
            d[i, j] = abs(i - j)
    return d


class TestRootedForest:
    def test_nodes_of(self, simple_forest):
        assert simple_forest.nodes_of(0) == {10, 0, 1}
        assert simple_forest.nodes_of(1) == {11, 2}

    def test_all_nodes_and_edges(self, simple_forest):
        assert simple_forest.all_nodes() == {10, 11, 0, 1, 2}
        assert len(simple_forest.all_edges()) == 3

    def test_weight(self, simple_forest, dist6x12):
        # edges (10,0)=10, (0,1)=1, (11,2)=9
        assert simple_forest.weight(dist6x12) == pytest.approx(20.0)

    def test_empty_tree_weight(self):
        f = RootedForest(roots=(5,), trees=((),))
        assert f.weight(np.zeros((6, 6))) == 0.0

    def test_preorder_starts_at_root(self, simple_forest):
        assert simple_forest.preorder_of(0) == [10, 0, 1]
        assert simple_forest.preorder_of(1) == [11, 2]

    def test_preorder_of_isolated_root(self):
        f = RootedForest(roots=(3,), trees=((),))
        assert f.preorder_of(0) == [3]

    def test_validate_spanning(self, simple_forest):
        simple_forest.validate_spanning([0, 1, 2])
        with pytest.raises(GraphError, match="not spanned"):
            simple_forest.validate_spanning([0, 1, 2, 3])

    def test_rejects_duplicate_roots(self):
        with pytest.raises(GraphError, match="duplicate"):
            RootedForest(roots=(1, 1), trees=((), ()))

    def test_rejects_overlapping_trees(self):
        with pytest.raises(GraphError, match="share"):
            RootedForest(roots=(10, 11), trees=(((10, 0),), ((11, 0),)))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(GraphError):
            RootedForest(roots=(1, 2), trees=((),))

    def test_q(self, simple_forest):
        assert simple_forest.q == 2

