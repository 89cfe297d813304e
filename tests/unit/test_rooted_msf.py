"""Unit tests for :mod:`repro.rooted.msf` (Algorithm 1)."""

import itertools

import numpy as np
import pytest

from repro.errors import GraphError
from repro.geometry.distance import distance_matrix
from repro.obs.instrument import Instrumentation
from repro.rooted.msf import DELAUNAY_MIN_SENSORS, q_rooted_msf, rooted_msf


def brute_force_msf(dist: np.ndarray, sensors: list[int], depots: list[int]) -> float:
    """Exact optimal q-rooted MSF weight by assignment enumeration + MST.

    For every assignment of sensors to depots, the best forest is the union
    of per-depot MSTs over (depot + its sensors); minimise over assignments.
    Exponential — tiny inputs only.
    """
    from repro.graphs.mst import mst_weight, prim_mst

    best = np.inf
    for assign in itertools.product(range(len(depots)), repeat=len(sensors)):
        total = 0.0
        for l, r in enumerate(depots):
            group = [r] + [s for s, a in zip(sensors, assign) if a == l]
            if len(group) > 1:
                sub = dist[np.ix_(group, group)]
                total += mst_weight(sub, prim_mst(sub))
        best = min(best, total)
    return float(best)


@pytest.fixture
def instance(rng):
    """8 sensors + 2 depots on random coordinates."""
    coords = rng.uniform(0, 100, size=(10, 2))
    return distance_matrix(coords)


class TestRootedMsfEngine:
    def test_empty_sensor_set(self):
        out = rooted_msf(np.zeros((0, 0)), np.zeros((0, 3)))
        assert out.n_sensors == 0 and out.weight == 0.0

    def test_single_sensor_attaches_to_cheapest_root(self):
        out = rooted_msf(np.zeros((1, 1)), np.array([[5.0, 2.0, 7.0]]))
        assert out.owner[0] == 1
        assert out.root_links == ((1, 0),)
        assert out.weight == pytest.approx(2.0)

    def test_chain_prefers_sensor_edges(self):
        # Two sensors 1 apart; roots 10 away: best = one link + one edge.
        sd = np.array([[0.0, 1.0], [1.0, 0.0]])
        rc = np.array([[10.0], [10.5]])
        out = rooted_msf(sd, rc)
        assert out.weight == pytest.approx(11.0)
        assert len(out.sensor_edges) == 1

    def test_all_sensors_owned(self, instance):
        out = rooted_msf(instance[:8, :8], instance[:8, 8:])
        assert set(np.unique(out.owner)).issubset({0, 1})
        assert np.all(out.owner >= 0)

    def test_unreachable_sensor_raises(self):
        with pytest.raises(GraphError, match="cannot reach"):
            rooted_msf(np.zeros((1, 1)), np.array([[np.inf]]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(GraphError):
            rooted_msf(np.zeros((2, 2)), np.zeros((3, 1)))

    def test_no_roots_raises(self):
        with pytest.raises(GraphError):
            rooted_msf(np.zeros((1, 1)), np.zeros((1, 0)))


class TestQRootedMsf:
    def test_optimal_vs_brute_force(self, instance):
        sensors, depots = list(range(8)), [8, 9]
        forest = q_rooted_msf(instance, sensors, depots)
        assert forest.weight(instance) == pytest.approx(
            brute_force_msf(instance, sensors, depots))

    def test_spans_all_sensors(self, instance):
        forest = q_rooted_msf(instance, list(range(8)), [8, 9])
        forest.validate_spanning(range(8))

    def test_trees_rooted_at_depots(self, instance):
        forest = q_rooted_msf(instance, list(range(8)), [8, 9])
        assert forest.roots == (8, 9)

    def test_empty_sensors_gives_isolated_depots(self, instance):
        forest = q_rooted_msf(instance, [], [8, 9])
        assert forest.all_nodes() == {8, 9}
        assert forest.weight(instance) == 0.0

    def test_q1_reduces_to_plain_mst(self, instance):
        from repro.graphs.mst import mst_weight, prim_mst

        nodes = list(range(8)) + [8]
        sub = instance[np.ix_(nodes, nodes)]
        forest = q_rooted_msf(instance, list(range(8)), [8])
        assert forest.weight(instance) == pytest.approx(
            mst_weight(sub, prim_mst(sub)))

    def test_overlapping_sets_raise(self, instance):
        with pytest.raises(GraphError, match="overlap"):
            q_rooted_msf(instance, [0, 8], [8, 9])

    def test_weight_no_worse_than_single_depot(self, instance):
        # Adding a depot can only help (more attachment options).
        w2 = q_rooted_msf(instance, list(range(8)), [8, 9]).weight(instance)
        w1 = q_rooted_msf(instance, list(range(8)), [8]).weight(instance)
        assert w2 <= w1 + 1e-9


def _coords_vs_dense(coords, sensors, depots):
    """The coords-path forest, the dense forest, and the coords path's counters."""
    obs = Instrumentation()
    got = q_rooted_msf(None, sensors, depots, coords=coords, obs=obs)
    return got, q_rooted_msf(distance_matrix(coords), sensors, depots), obs.counters


class TestCoordsPath:
    """``q_rooted_msf(None, ..., coords=)``: the Delaunay path and the
    planted inputs that must fall back to dense Prim and still agree."""

    M = DELAUNAY_MIN_SENSORS + 40

    def _with_depots(self, sensor_pts, rng, q=3):
        depots = rng.uniform(0.0, 100.0, size=(q, 2)) + 0.3
        coords = np.vstack([sensor_pts, depots])
        m = len(sensor_pts)
        return coords, list(range(m)), list(range(m, m + q))

    def test_float_points_take_the_delaunay_path(self, rng):
        coords, sensors, depots = self._with_depots(
            rng.uniform(0.0, 100.0, size=(self.M, 2)), rng)
        got, dense, counters = _coords_vs_dense(coords, sensors, depots)
        assert got == dense
        assert "msf.delaunay.fallbacks" not in counters
        assert "kernel.prim.calls" not in counters
        assert counters["msf.calls"] == 1
        assert counters["msf.mst_rounds"] == self.M

    def test_subset_in_graph_indices(self, rng):
        # Sensors interleaved with depots and unsorted: the local labelling
        # must map back to the caller's graph indices.
        coords = rng.uniform(0.0, 100.0, size=(2 * self.M, 2))
        order = rng.permutation(2 * self.M)
        depots = [int(i) for i in order[:4]]
        sensors = [int(i) for i in order[4:4 + self.M]]
        got, dense, counters = _coords_vs_dense(coords, sensors, depots)
        assert got == dense
        assert "msf.delaunay.fallbacks" not in counters

    def test_exact_lattice_falls_back_on_ties(self, rng):
        side = int(np.ceil(np.sqrt(self.M)))
        xs, ys = np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float))
        lattice = np.column_stack([xs.ravel(), ys.ravel()])
        coords, sensors, depots = self._with_depots(lattice, rng)
        got, dense, counters = _coords_vs_dense(coords, sensors, depots)
        assert got == dense
        assert counters["msf.delaunay.fallbacks"] == 1

    def test_duplicated_point_falls_back(self, rng):
        pts = rng.uniform(0.0, 100.0, size=(self.M, 2))
        pts[-1] = pts[7]
        coords, sensors, depots = self._with_depots(pts, rng)
        got, dense, counters = _coords_vs_dense(coords, sensors, depots)
        assert got == dense
        assert counters["msf.delaunay.fallbacks"] == 1

    def test_collinear_set_falls_back(self, rng):
        t = np.sort(rng.uniform(0.0, 100.0, size=self.M))
        coords, sensors, depots = self._with_depots(
            np.column_stack([t, 0.5 * t + 3.0]), rng)
        got, dense, counters = _coords_vs_dense(coords, sensors, depots)
        assert got == dense
        assert counters["msf.delaunay.fallbacks"] == 1

    def test_sensor_on_a_depot_falls_back(self, rng):
        # A zero-length super-root edge: the sparse MST cannot carry it.
        coords, sensors, depots = self._with_depots(
            rng.uniform(0.0, 100.0, size=(self.M, 2)), rng)
        coords[depots[1]] = coords[sensors[5]]
        got, dense, counters = _coords_vs_dense(coords, sensors, depots)
        assert got == dense
        assert counters["msf.delaunay.fallbacks"] == 1

    def test_set_below_the_floor_runs_dense(self, rng):
        coords, sensors, depots = self._with_depots(
            rng.uniform(0.0, 100.0, size=(DELAUNAY_MIN_SENSORS - 1, 2)), rng)
        got, dense, counters = _coords_vs_dense(coords, sensors, depots)
        assert got == dense
        assert counters["kernel.prim.calls"] == 1
        assert "msf.delaunay.fallbacks" not in counters

    def test_exactly_one_geometry_source(self, instance, rng):
        coords = rng.uniform(0, 100, size=(10, 2))
        with pytest.raises(TypeError, match="exactly one"):
            q_rooted_msf(instance, [0, 1], [8], coords=coords)
        with pytest.raises(TypeError, match="exactly one"):
            q_rooted_msf(None, [0, 1], [8])
