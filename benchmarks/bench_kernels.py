"""Micro-benchmarks for the planner's kernels against their oracles.

Times the production 2-opt (:func:`repro.tsp.improve.two_opt`) against
the full-matrix scan it must reproduce
(:func:`repro.tsp.improve.two_opt_scan`) at n in {500, 2000, 5000}, and
Algorithm 1 from coordinates (the Delaunay candidate graph) against dense
Prim over the full matrix. Every timed pair also
cross-checks outputs: the accelerations are *exact*, so speed never
trades answers.

The 2-opt sweep runs on the planner's *actual* inputs — MST-doubled
tours from Algorithm 2 (:func:`repro.rooted.qtsp.q_rooted_tsp`) — not
random permutations. That distinction is load-bearing: doubled-MST tours
are locally mostly-good with sparse crossings, which is the regime the
pruned scan's neighbour lists and don't-look bits are engineered for
(on adversarial random permutations, where nearly every exchange
improves, the full-matrix scan wins instead).

Measurements are emitted to ``BENCH_kernels.json`` in the working
directory. Acceptance bar: production 2-opt >= 5x the full-scan oracle
at n = 5000. The Delaunay-vs-dense pair only records its speedup; it has no bar.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.geometry.distance import distance_matrix
from repro.rooted.msf import DELAUNAY_MIN_SENSORS, q_rooted_msf
from repro.rooted.qtsp import q_rooted_tsp
from repro.tsp.improve import two_opt, two_opt_scan

_KERNELS_JSON = Path("BENCH_kernels.json")
_measurements: dict = {}

#: Tour sizes for the 2-opt sweep (the paper's largest instances sit near
#: the low end; 5000 is the headroom point the pruned scan is engineered
#: for).
_SIZES = (500, 2000, 5000)


@pytest.fixture(scope="module")
def kernels_json():
    """Collects the module's numbers; written once at the end (partial
    runs emit whatever they measured)."""
    yield _measurements
    if _measurements:
        _KERNELS_JSON.write_text(
            json.dumps(_measurements, indent=2, sort_keys=True) + "\n")
        print(f"\nkernel measurements -> {_KERNELS_JSON.resolve()}")


def _instance(n, seed=42):
    rng = np.random.default_rng(seed)
    return distance_matrix(rng.uniform(0, 1000, size=(n, 2)))


def _best_of(fn, repeats):
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def test_two_opt_vs_oracle(kernels_json):
    for n in _SIZES:
        # The planner's real 2-opt input: the MST-doubled tour Algorithm 2
        # builds over n sensors anchored at a single depot (index n).
        dist = _instance(n + 1)
        tour = q_rooted_tsp(dist, list(range(n)), [n])[0]
        repeats = 2 if n <= 2000 else 3
        t_scan, r_scan = _best_of(lambda: two_opt_scan(dist, tour), repeats)
        t_prod, r_prod = _best_of(lambda: two_opt(dist, tour), repeats)
        assert r_scan == r_prod
        speedup = t_scan / t_prod if t_prod > 0 else float("inf")
        kernels_json[f"two_opt_n{n}"] = {
            "oracle_s": t_scan, "production_s": t_prod, "speedup": speedup,
        }
        if n >= 5000:
            assert speedup >= 5.0, (
                f"2-opt speedup {speedup:.2f}x over the full scan at n={n} "
                f"is below the 5x acceptance bar")


def test_delaunay_msf_vs_dense(kernels_json):
    """Algorithm 1 from coordinates vs dense Prim over the full matrix (the
    matrix build itself is excluded from the dense time)."""
    n, q = 5000, 5
    rng = np.random.default_rng(42)
    coords = rng.uniform(0, 1000, size=(n + q, 2))
    dist = distance_matrix(coords)
    sensors, depots = list(range(n)), list(range(n, n + q))
    q_rooted_msf(None, sensors[:DELAUNAY_MIN_SENSORS], depots,
                 coords=coords)  # load scipy outside the timed runs

    t_dense, dense = _best_of(lambda: q_rooted_msf(dist, sensors, depots), 3)
    t_coords, sparse = _best_of(
        lambda: q_rooted_msf(None, sensors, depots, coords=coords), 3)
    assert sparse == dense
    kernels_json[f"delaunay_msf_n{n}"] = {
        "dense_s": t_dense, "delaunay_s": t_coords,
        "speedup": t_dense / t_coords if t_coords > 0 else float("inf"),
    }
