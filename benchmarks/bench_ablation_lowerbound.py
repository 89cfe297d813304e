"""Ablation: how tight is Algorithm 3 against the Lemma-3 lower bound?

Theorem 2 guarantees ``cost <= 2(K+2) * OPT`` (= 14x at the paper's
defaults, K = 5). The Lemma-3 certificate lets us measure the *empirical*
ratio ``cost / LB >= cost / OPT`` per instance; this bench reports it
across network sizes, showing the delivered plans are far closer to
optimal than the worst case suggests.
"""

import numpy as np
import pytest

from repro.core.bounds import empirical_ratio, lemma3_lower_bound
from repro.core.mintotal import min_total_distance
from repro.network.builder import build_paper_network
from repro.reporting.table import format_table

HORIZON = 1000.0


def _one_instance(n: int, seed: int) -> tuple[float, float, int]:
    net = build_paper_network(n=n, q=5, seed=seed)
    res = min_total_distance(net, HORIZON)
    cost = res.plan.total_cost(net.dist)
    lb = lemma3_lower_bound(net, HORIZON)
    return cost, lb.bound, res.quantization.K


def test_ablation_lower_bound(benchmark, bench_reps, request):
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def run():
        rows = []
        for n in (100, 200, 300):
            ratios = []
            K = 0
            for seed in range(bench_reps):
                cost, bound, K = _one_instance(n, 1000 + seed)
                ratios.append(empirical_ratio(cost, bound))
            rows.append([n, float(np.mean(ratios)), 2 * (K + 2)])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    table = format_table(
        ["n", "empirical cost/LB", "worst-case guarantee 2(K+2)"],
        rows, precision=2)
    report = ("\n== abl-lb: empirical approximation ratio vs Lemma-3 bound ==\n"
              + table + "\n(the lower bound itself is loose, so the true "
              "optimality gap is smaller still)\n")
    if capman is not None:
        with capman.global_and_fixture_disabled():
            print(report, flush=True)

    for n, ratio, guarantee in rows:
        assert ratio <= guarantee + 1e-9, \
            f"n={n}: measured ratio {ratio} exceeds the proven bound"
        assert ratio == pytest.approx(ratio)  # finite
        assert ratio < guarantee, "empirical ratio should beat the worst case"
