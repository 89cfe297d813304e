"""Shared benchmark infrastructure.

Each ``bench_fig*.py`` regenerates one panel of the paper's evaluation:
it runs the registered sweep (coarse grid, a few topologies per point —
raise with ``--bench-reps`` or use the CLI's ``--full`` for paper density),
prints the panel's EXPERIMENTS.md section (the same series the paper plots
plus the paper-vs-measured verdict),
and records the wall-clock through pytest-benchmark (one round — these are
macro-benchmarks; the micro-benchmarks live in ``bench_scaling.py``).
"""

from __future__ import annotations

import pytest

from repro.experiments.figures import get_figure
from repro.reporting.experiments_md import figure_markdown


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


@pytest.fixture
def run_figure_bench(benchmark, bench_reps, bench_full, request):
    """Run one registered figure under the benchmark timer and print its
    markdown panel section (straight to the terminal, bypassing capture);
    returns the sweep for assertions."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def run(figure_id: str):
        spec = get_figure(figure_id)
        result = benchmark.pedantic(
            lambda: spec.run(n_topologies=bench_reps, full=bench_full),
            rounds=1, iterations=1)
        report = "\n" + figure_markdown(spec, result)
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(report, flush=True)
        else:
            print(report)
        return result

    return run
