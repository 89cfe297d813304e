"""Unit tests for the exact TSP and exact q-rooted solvers."""

import itertools

import numpy as np
import pytest

from repro.errors import TourError
from repro.geometry.distance import distance_matrix, path_length
from repro.rooted.exact import exact_q_rooted_tsp
from repro.rooted.qtsp import q_rooted_tsp, tours_total_cost
from repro.tsp.exact import held_karp_tsp
from repro.tsp.improve import two_opt


def brute_force_tsp_cost(dist, depot, nodes):
    best = np.inf
    for perm in itertools.permutations(nodes):
        best = min(best, path_length(dist, [depot, *perm], closed=True))
    return float(best)


class TestHeldKarpTsp:
    def test_matches_brute_force(self, rng):
        d = distance_matrix(rng.uniform(0, 100, size=(9, 2)))
        tour = held_karp_tsp(d, 0, list(range(1, 9)))
        assert tour.cost(d) == pytest.approx(
            brute_force_tsp_cost(d, 0, list(range(1, 9))))

    def test_tour_is_valid(self, rng):
        d = distance_matrix(rng.uniform(0, 100, size=(10, 2)))
        tour = held_karp_tsp(d, 3, [i for i in range(10) if i != 3])
        assert tour.order[0] == 3
        assert sorted(tour.order) == list(range(10))

    def test_square_is_perimeter(self):
        d = distance_matrix(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))
        tour = held_karp_tsp(d, 0, [1, 2, 3])
        assert tour.cost(d) == pytest.approx(4.0)

    def test_degenerate_sizes(self, rng):
        d = distance_matrix(rng.uniform(0, 10, size=(5, 2)))
        assert held_karp_tsp(d, 2, []).is_empty
        pair = held_karp_tsp(d, 0, [4])
        assert pair.order == (0, 4)

    def test_heuristics_never_beat_it(self, rng):
        d = distance_matrix(rng.uniform(0, 100, size=(11, 2)))
        nodes = list(range(1, 11))
        opt = held_karp_tsp(d, 0, nodes).cost(d)
        walked = q_rooted_tsp(d, nodes, [0])[0]
        shuffled = walked.with_order([0, *(int(v) for v in rng.permutation(nodes))])
        for tour in (walked, two_opt(d, walked), shuffled, two_opt(d, shuffled)):
            assert tour.cost(d) >= opt - 1e-9

    def test_size_cap_enforced(self):
        d = np.zeros((25, 25))
        with pytest.raises(TourError, match="cap"):
            held_karp_tsp(d, 0, list(range(1, 20)))

    def test_duplicate_nodes_raise(self):
        d = np.zeros((4, 4))
        with pytest.raises(TourError, match="duplicate"):
            held_karp_tsp(d, 0, [1, 1])


class TestExactQRooted:
    def test_optimal_beats_or_matches_algorithm2(self, rng):
        coords = rng.uniform(0, 100, size=(9, 2))
        d = distance_matrix(coords)
        sensors, depots = list(range(7)), [7, 8]
        opt = tours_total_cost(d, exact_q_rooted_tsp(d, sensors, depots))
        approx = tours_total_cost(d, q_rooted_tsp(d, sensors, depots))
        assert opt <= approx + 1e-9
        assert approx <= 2 * opt + 1e-6  # the Theorem-1 ratio, measured

    def test_coverage(self, rng):
        d = distance_matrix(rng.uniform(0, 100, size=(8, 2)))
        tours = exact_q_rooted_tsp(d, list(range(6)), [6, 7])
        covered = set().union(*(set(t.stops()) for t in tours))
        assert covered == set(range(6))
        assert [t.depot for t in tours] == [6, 7]

    def test_empty_sensors(self, rng):
        d = distance_matrix(rng.uniform(0, 10, size=(3, 2)))
        tours = exact_q_rooted_tsp(d, [], [0, 1, 2])
        assert all(t.is_empty for t in tours)

    def test_sensor_cap(self):
        d = np.zeros((15, 15))
        with pytest.raises(TourError, match="cap"):
            exact_q_rooted_tsp(d, list(range(12)), [12, 13])

    def test_no_depots_raises(self):
        with pytest.raises(TourError):
            exact_q_rooted_tsp(np.zeros((2, 2)), [0], [])

    def test_single_depot_reduces_to_exact_tsp(self, rng):
        d = distance_matrix(rng.uniform(0, 100, size=(8, 2)))
        tours = exact_q_rooted_tsp(d, list(range(7)), [7])
        assert tours[0].cost(d) == pytest.approx(
            held_karp_tsp(d, 7, list(range(7))).cost(d))
