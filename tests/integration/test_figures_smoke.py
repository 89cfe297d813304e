"""Tiny-scale smoke runs of the figure registry.

``benchmarks/bench_figures.py`` runs the registered panels at the reported
scale and asserts their shape checks; these tests run shrunken versions
(small n, short horizon, one topology, one sweep value) so ``pytest
tests/`` alone exercises every figure's *machinery* — config composition,
sweep, aggregation, shape check, reporting — end to end, for each
registered figure id.
"""

import pytest

from repro.experiments.figures import FIGURES
from repro.experiments.sweeps import sweep
from repro.reporting.experiments_md import figure_markdown

#: Per-figure shrunken sweep values (keep variable-cycle figures extra small).
_SMALL_VALUES = {
    "n": [20],
    "tau_max": [10],
    "slot_duration": [10],
    "sigma": [2],
    "q": [2],
    "quantization_base": [3],
    "deployment": ["clustered"],
    "failure_rate": [0.005],
}


@pytest.mark.parametrize("figure_id", sorted(FIGURES))
def test_figure_machinery_smoke(figure_id):
    spec = FIGURES[figure_id]
    base = spec.base.with_(n=20, horizon=60.0, n_topologies=1)
    values = _SMALL_VALUES[spec.parameter]
    result = sweep(base, spec.parameter, values)

    # Every configured algorithm produced a positive cost and — unless the
    # sweep injects charger failures, where deaths are the measured
    # outcome — kept every sensor alive.
    dynamic = result.points[0].config.failure_rate > 0
    for alg in base.algorithms:
        assert result.series(alg)[1][0] > 0
        if not dynamic:
            assert result.deaths(alg)[0] == 0

    # The check evaluates on a one-value sweep (claims about values it did
    # not visit are skipped) and the reporting layer renders its verdict.
    # The verdict itself is NOT asserted at this scale: shapes are a
    # property of paper-scale instances.
    broken = spec.check(result)
    assert all(isinstance(claim, str) for claim in broken)
    text = figure_markdown(spec, result, broken)
    assert text.startswith(f"### {figure_id} — ")
    assert "*Registered shape check:* **" in text
