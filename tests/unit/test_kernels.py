"""Unit tests for the planner's kernels: the exact 2-opt against its
oracle and the kernel spans and counters.

The exactness tests here are seeded spot checks around the 2-opt's
neighbour-list width and its blocked-scan cutoff; the property-based
sweeps live in
``tests/property/test_prop_kernels.py`` and the whole-pipeline
differential in :mod:`repro.check` (the ``kernels`` check).
"""

import numpy as np

from repro.core.mintotal import min_total_distance
from repro.geometry.distance import distance_matrix
from repro.obs.instrument import Instrumentation
from repro.rooted.qtsp import q_rooted_tsp
from repro.tsp.improve import _LARGE_K, two_opt, two_opt_scan
from repro.tsp.tour import Tour


#: Tour sizes on both sides of the walk's complete neighbour lists
#: (``k <= _M_WALK + 1``), and the sizes around 32.
_SIZES = (17, 18, 31, 32, 33, 100)


def _random_instance(rng, n):
    return distance_matrix(rng.uniform(0, 100, size=(n, 2)))


def _random_tour(rng, nodes):
    order = [int(v) for v in rng.permutation(nodes)]
    return Tour(depot=order[0], order=tuple(order))


class TestFastMatchesReference:
    """Seeded spot checks that the production 2-opt is move-for-move exact
    against its oracle on both sides of each size cutoff."""

    def test_two_opt_identical_tours(self, rng):
        for k in _SIZES:
            d = _random_instance(rng, k)
            tour = _random_tour(rng, k)
            assert two_opt(d, tour) == two_opt_scan(d, tour), k
            # Same tour size over a subset of a larger matrix.
            d = _random_instance(rng, k + 7)
            tour = _random_tour(rng, rng.choice(k + 7, size=k, replace=False))
            assert two_opt(d, tour) == two_opt_scan(d, tour), k

    def test_two_opt_identical_across_the_blocked_cutoff(self, rng):
        # MST-doubled tours (the planner's input; random permutations of
        # this length would take the oracle too long), uniform and
        # tie-heavy lattice points, exact-size and larger matrices.
        for k in (_LARGE_K - 1, _LARGE_K, _LARGE_K + 40):
            for pts in (rng.uniform(0, 1000, size=(k + 5, 2)),
                        rng.integers(0, 40, size=(k + 5, 2)).astype(np.float64)):
                for d in (distance_matrix(pts), distance_matrix(pts[:k])):
                    tour = q_rooted_tsp(d, list(range(1, k)), [0])[0]
                    assert len(tour.order) == k
                    assert two_opt(d, tour) == two_opt_scan(d, tour), k

    def test_two_opt_counters_match_the_scan(self, rng):
        d = _random_instance(rng, 60)
        tour = _random_tour(rng, 60)
        fast, scan = Instrumentation(), Instrumentation()
        two_opt(d, tour, obs=fast)
        two_opt_scan(d, tour, obs=scan)
        for name in ("two_opt.passes", "two_opt.moves"):
            assert fast.snapshot().counters[name] == scan.snapshot().counters[name]


class TestKernelObservability:
    def test_refine_plan_records_kernel_spans_and_counters(self, paper_network_small):
        obs = Instrumentation()
        min_total_distance(paper_network_small, 200.0, refine=True, obs=obs)
        counters = obs.snapshot().counters
        for kernel in ("prim", "two_opt"):
            assert counters[f"kernel.{kernel}.calls"] >= 1
            spans = obs.spans(f"kernel.{kernel}")
            assert len(spans) == counters[f"kernel.{kernel}.calls"]
            assert "backend" not in spans[0].attrs

