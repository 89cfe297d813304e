"""Unit tests for :mod:`repro.rooted.qtsp` (Algorithm 2) and refine."""

import pytest

from repro.geometry.distance import distance_matrix
from repro.rooted.msf import q_rooted_msf
from repro.rooted.qtsp import q_rooted_tsp, tours_from_forest, tours_total_cost
from repro.rooted.refine import refine_tours


@pytest.fixture
def instance(rng):
    coords = rng.uniform(0, 100, size=(20, 2))
    return distance_matrix(coords)


SENSORS = list(range(17))
DEPOTS = [17, 18, 19]


class TestQRootedTsp:
    def test_one_tour_per_depot(self, instance):
        tours = q_rooted_tsp(instance, SENSORS, DEPOTS)
        assert [t.depot for t in tours] == DEPOTS

    def test_joint_coverage(self, instance):
        tours = q_rooted_tsp(instance, SENSORS, DEPOTS)
        covered = set().union(*(t.visited() for t in tours))
        assert set(SENSORS) <= covered

    def test_vertex_disjoint_sensor_sets(self, instance):
        tours = q_rooted_tsp(instance, SENSORS, DEPOTS)
        seen: set[int] = set()
        for t in tours:
            stops = set(t.stops())
            assert not (stops & seen)
            seen |= stops

    def test_two_approximation_vs_msf(self, instance):
        tours = q_rooted_tsp(instance, SENSORS, DEPOTS)
        forest = q_rooted_msf(instance, SENSORS, DEPOTS)
        msf_w = forest.weight(instance)
        cost = tours_total_cost(instance, tours)
        assert cost <= 2 * msf_w + 1e-9  # Theorem 1's chain via the MSF bound

    def test_empty_sensor_set_gives_empty_tours(self, instance):
        tours = q_rooted_tsp(instance, [], DEPOTS)
        assert all(t.is_empty for t in tours)
        assert tours_total_cost(instance, tours) == 0.0

    def test_refine_never_worsens(self, instance):
        plain = q_rooted_tsp(instance, SENSORS, DEPOTS)
        refined = q_rooted_tsp(instance, SENSORS, DEPOTS, refine=True)
        assert (tours_total_cost(instance, refined)
                <= tours_total_cost(instance, plain) + 1e-9)
        covered = set().union(*(t.visited() for t in refined))
        assert set(SENSORS) <= covered

    def test_q1_single_tour(self, instance):
        tours = q_rooted_tsp(instance, SENSORS, [19])
        assert len(tours) == 1
        assert tours[0].visited() == set(SENSORS) | {19}


class TestToursFromForest:
    def test_preorder_consistency(self, instance):
        forest = q_rooted_msf(instance, SENSORS, DEPOTS)
        tours = tours_from_forest(forest)
        for l, t in enumerate(tours):
            assert t.visited() == forest.nodes_of(l)
            # cost <= 2 * tree weight (the per-tree doubling bound)
            assert t.cost(instance) <= 2 * forest.tree_weight(l, instance) + 1e-9


class TestRefineTours:
    def test_keeps_depots_and_never_worsens(self, instance):
        tours = q_rooted_tsp(instance, SENSORS, DEPOTS)
        out = refine_tours(instance, tours)
        assert (tours_total_cost(instance, out)
                <= tours_total_cost(instance, tours) + 1e-9)
        assert [t.depot for t in out] == DEPOTS
        assert [t.visited() for t in out] == [t.visited() for t in tours]
