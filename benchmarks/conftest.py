"""Shared benchmark options.

``--bench-reps`` sets the topologies per sweep point of the macro-benchmarks
(``bench_figures.py`` runs every registered panel of the paper's evaluation
under them, ``bench_ablation_lowerbound.py`` certifies that many instances);
``--bench-full`` switches the panels to the paper-dense sweep grids. The
micro-benchmarks live in ``bench_scaling.py``.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--bench-reps", type=int, default=3,
        help="topologies per sweep point for figure benches (paper: 100)")
    parser.addoption(
        "--bench-full", action="store_true",
        help="use the paper-dense sweep grids (slow)")


@pytest.fixture(scope="session")
def bench_reps(request) -> int:
    return request.config.getoption("--bench-reps")


@pytest.fixture(scope="session")
def bench_full(request) -> bool:
    return request.config.getoption("--bench-full")
