"""One macro-benchmark per registered panel of the paper's evaluation.

Each case runs the panel's sweep (coarse grid and ``--bench-reps``
topologies per point; ``--bench-full`` for the paper-dense grid) under the
benchmark timer for one round, prints its EXPERIMENTS.md section, and
asserts the registered shape check: the claims live in
``repro.experiments.figures`` alone, so this file, ``repro run`` and
``repro report`` all read the same verdict. At ``--bench-reps 3`` on a
2-vCPU VM the ten fixed-cycle panels take ~110 s and the five
variable-cycle ones (fig3-6, abl-tiebreak) ~330 s; CI runs the former,
selected with
``-k "not fig3 and not fig4 and not fig5 and not fig6 and not tiebreak"``.
"""

import pytest

from repro.experiments.figures import FIGURES
from repro.reporting.experiments_md import figure_markdown


@pytest.mark.parametrize("figure_id", sorted(FIGURES))
def test_figure(figure_id, benchmark, bench_reps, bench_full, capsys):
    spec = FIGURES[figure_id]
    result = benchmark.pedantic(
        lambda: spec.run(n_topologies=bench_reps, full=bench_full),
        rounds=1, iterations=1)
    broken = spec.check(result)
    with capsys.disabled():
        print("\n" + figure_markdown(spec, result, broken), flush=True)
    assert broken == [], f"{figure_id} breaks: " + "; ".join(broken)
