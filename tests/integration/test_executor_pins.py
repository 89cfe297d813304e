"""Integration: the run executor's figure path, pinned across commits.

``test_parallel_runner.py`` compares serial with parallel runs of the
*same* code, so a seed-derivation or ordering slip made on both paths
would pass it. These tests pin the sha256 of every result-table column
(cost, deaths, dispatches per algorithm) for three tiny cells to fixed
digests (a fixed-cycle cell, a
variable-cycle cell and a dynamics cell), at ``jobs=1`` and ``jobs=2``,
and check that the optional on-disk artifact store changes no byte.
"""

import hashlib

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_cell
from repro.obs import Instrumentation

CELLS = {
    "fixed": ExperimentConfig(
        n=20, q=3, horizon=80.0, n_topologies=3, seed=5,
        algorithms=("mtd", "mtd+2opt", "greedy")),
    "variable": ExperimentConfig(
        n=20, q=3, horizon=80.0, n_topologies=2, seed=5,
        variable=True, slot_duration=10.0,
        algorithms=("mtd-var", "mtd-var-defer", "greedy")),
    "dynamics": ExperimentConfig(
        n=20, q=3, horizon=80.0, n_topologies=2, seed=5,
        failure_rate=0.05, failure_mttr=5.0, churn_rate=0.1,
        churn_downtime=5.0, request_rate=0.5, dynamics_seed=3,
        algorithms=("mtd", "greedy")),
}

#: cell -> algorithm -> first 16 hex digits of sha256 over the
#: ``.tobytes()`` of the (cost, deaths, dispatches) columns (float64,
#: int64, int64).
DIGESTS = {
    "fixed": {
        "mtd": ("5ffdbe26009af9e0", "9d908ecfb6b256de", "032e7d6955673a31"),
        "mtd+2opt": ("87c5577b2bb7823c", "9d908ecfb6b256de",
                     "032e7d6955673a31"),
        "greedy": ("8ae8487c96f50520", "9d908ecfb6b256de", "032e7d6955673a31"),
    },
    "variable": {
        "mtd-var": ("5b2c0b34b14c57d0", "374708fff7719dd5", "b953d4c4644660e3"),
        "mtd-var-defer": ("80e6ef622538670b", "374708fff7719dd5",
                          "b953d4c4644660e3"),
        "greedy": ("1f8c20e793cecba4", "374708fff7719dd5", "d9242e642366f34b"),
    },
    "dynamics": {
        "mtd": ("142f0783a6c44dd5", "700ae08683cf67ce", "d9242e642366f34b"),
        "greedy": ("b3e914871ae2dae8", "87adda5e8e5176e7", "d9242e642366f34b"),
    },
}


_FIELDS = ("cost", "deaths", "dispatches")


def _digests(table):
    return {alg: tuple(
        hashlib.sha256(table.column(spec, alg, field).tobytes()).hexdigest()[:16]
        for field in _FIELDS)
        for spec, alg in table.rows}


def _arrays(table):
    return [tuple(table.column(spec, alg, field).tobytes() for field in _FIELDS)
            for spec, alg in table.rows]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_digests_are_pinned(name, jobs):
    assert _digests(run_cell(CELLS[name], jobs=jobs)) == DIGESTS[name]


@pytest.mark.parametrize("jobs", [1, 2])
def test_store_cold_then_warm_is_byte_identical(tmp_path, jobs):
    """``cache_dir`` is purely an accelerator: a cold run writes the
    store, a warm run reads it, and neither moves a byte of the result."""
    config = CELLS["fixed"]
    reference = _arrays(run_cell(config))
    store = str(tmp_path / "store")
    cold, warm = Instrumentation(), Instrumentation()
    assert _arrays(run_cell(config, obs=cold, jobs=jobs,
                            cache_dir=store)) == reference
    assert cold.counters.get("plan.cache.disk.writes", 0) > 0
    assert _arrays(run_cell(config, obs=warm, jobs=jobs,
                            cache_dir=store)) == reference
    assert warm.counters.get("plan.cache.disk.hits", 0) > 0
