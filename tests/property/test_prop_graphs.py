"""Property-based tests for the graph kernels (hypothesis).

Oracles: networkx for MST weight and connected components; first-principles
invariants for everything else.
"""

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.distance import distance_matrix
from repro.graphs.mst import kruskal_mst, mst_weight, prim_mst
from repro.graphs.traversal import adjacency_from_edges, preorder
from repro.graphs.unionfind import UnionFind

coords_strategy = st.integers(2, 25).flatmap(
    lambda n: st.lists(
        st.tuples(st.floats(0, 1000, allow_nan=False, width=32),
                  st.floats(0, 1000, allow_nan=False, width=32)),
        min_size=n, max_size=n))


@st.composite
def point_clouds(draw):
    pts = draw(coords_strategy)
    return distance_matrix(np.asarray(pts, dtype=np.float64))


class TestMstProperties:
    @given(point_clouds())
    @settings(max_examples=40, deadline=None)
    def test_prim_matches_networkx_weight(self, dist):
        n = dist.shape[0]
        g = nx.Graph()
        for i in range(n):
            for j in range(i + 1, n):
                g.add_edge(i, j, weight=float(dist[i, j]))
        expected = nx.minimum_spanning_tree(g).size(weight="weight")
        got = mst_weight(dist, prim_mst(dist))
        assert abs(got - expected) < 1e-6 * max(1.0, expected)

    @given(point_clouds())
    @settings(max_examples=40, deadline=None)
    def test_prim_spans_and_is_acyclic(self, dist):
        n = dist.shape[0]
        edges = prim_mst(dist)
        assert len(edges) == n - 1
        uf = UnionFind(n)
        for u, v in edges:
            assert uf.union(u, v), "MST edge closes a cycle"
        assert uf.n_components == 1

    @given(point_clouds())
    @settings(max_examples=30, deadline=None)
    def test_kruskal_agrees_with_prim(self, dist):
        n = dist.shape[0]
        triples = [(i, j, float(dist[i, j]))
                   for i in range(n) for j in range(i + 1, n)]
        kw = mst_weight(dist, kruskal_mst(n, triples))
        pw = mst_weight(dist, prim_mst(dist))
        assert abs(kw - pw) < 1e-6 * max(1.0, pw)


class TestPreorderProperties:
    @given(point_clouds())
    @settings(max_examples=30, deadline=None)
    def test_preorder_is_permutation_rooted_first(self, dist):
        edges = prim_mst(dist, root=0)
        adj = adjacency_from_edges(edges, nodes=range(dist.shape[0]))
        order = preorder(adj, 0)
        assert order[0] == 0
        assert sorted(order) == list(range(dist.shape[0]))

    @given(point_clouds())
    @settings(max_examples=30, deadline=None)
    def test_preorder_tour_within_twice_mst(self, dist):
        """The double-tree bound, the heart of Algorithm 2."""
        from repro.geometry.distance import path_length

        edges = prim_mst(dist, root=0)
        adj = adjacency_from_edges(edges, nodes=range(dist.shape[0]))
        order = preorder(adj, 0)
        tour_cost = path_length(dist, order, closed=True)
        assert tour_cost <= 2 * mst_weight(dist, edges) + 1e-6


class TestUnionFindProperties:
    @given(st.integers(1, 40),
           st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)),
                    max_size=80))
    @settings(max_examples=50, deadline=None)
    def test_matches_networkx_components(self, n, pairs):
        pairs = [(u % n, v % n) for u, v in pairs]
        uf = UnionFind(n)
        g = nx.Graph()
        g.add_nodes_from(range(n))
        for u, v in pairs:
            uf.union(u, v)
            g.add_edge(u, v)
        assert uf.n_components == nx.number_connected_components(g)
        for comp in nx.connected_components(g):
            comp = sorted(comp)
            for x in comp[1:]:
                assert uf.connected(comp[0], x)
