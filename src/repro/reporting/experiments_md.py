"""Markdown generation for EXPERIMENTS.md.

``repro report`` runs a set of registered figures and renders a
paper-vs-measured markdown document: per panel, the fixed setup, the sweep
table, the headline ratio, the zero-deaths statement and the verdict on the
registered qualitative check. EXPERIMENTS.md in this repository is the
output of exactly this code path, and ``repro run`` prints the same panel
section (:func:`figure_markdown`) for one figure.
"""

from __future__ import annotations

import re
import time
from typing import Callable, Iterable

import numpy as np

from repro.experiments.figures import FIGURES, FigureSpec
from repro.experiments.sweeps import SweepResult

__all__ = ["figure_markdown", "experiments_markdown", "headline_pair",
           "PAPER_PANELS", "DISCUSSION"]

#: The panels of the paper's evaluation, in paper order.
PAPER_PANELS = ("fig1a", "fig1b", "fig2a", "fig2b", "fig3", "fig4", "fig5", "fig6")

#: Per-figure reproduction notes, rendered into the generated document so
#: they survive regeneration. Keep these about *interpretation* — the
#: numbers themselves come from the run.
DISCUSSION: dict[str, str] = {
    "fig1a": ("The measured band lands inside the paper's reported 55-60%. "
              "The win comes from piggybacking long-cycle sensors onto tours "
              "the short-cycle (sink-adjacent) sensors already pay for."),
    "fig1b": ("With short-cycle sensors scattered (no geometric structure to "
              "exploit), the measured ~0.9 matches the paper's 87-93% band."),
    "fig2a": ("The crossover at tau_max ≈ 10 reproduces: below it most "
              "sensors share short cycles and both algorithms sweep the "
              "whole field; beyond it the class structure pays off "
              "increasingly (measured ratio falls to ~0.59 at tau_max=50)."),
    "fig2b": ("As in the paper, the random distribution keeps the two "
              "algorithms within a few percent at every tau_max."),
    "fig3": ("The adaptive variant retains the fixed-cycle win under "
             "ΔT=10, sigma=2 — the paper's 'still competitive' claim."),
    "fig4": ("The Fig. 2(a) shape survives variable cycles: parity at small "
             "tau_max, a growing win beyond."),
    "fig5": ("Costs fall and the gap widens with stability, as in the paper. "
             "At ΔT=1 the paper reports near-parity; with the paper-faithful "
             "patch tie-break we measure 0.8-1.0 depending on the topology "
             "mix. The `abl-tiebreak` ablation shows the parity is an "
             "artefact of front-loading equal-cost patch attachments — "
             "deferring them keeps the ratio near 0.6 even at ΔT=1."),
    "fig6": ("Textbook reproduction: both costs rise with sigma and the "
             "ratio climbs from ~0.5 at sigma=2 to ~1.0 at sigma=50, where "
             "far-from-sink sensors can draw short cycles and the linear "
             "structure the algorithm exploits is gone."),
    "abl-refine": ("2-opt shaves a few percent off every algorithm's tours "
                   "without affecting feasibility; the planner's structural "
                   "win over greedy is unchanged — it is not an artefact of "
                   "sloppy tour construction."),
    "abl-q": ("MinTotalDistance is nearly insensitive to fleet size (its "
              "depot-0 co-location plus batching already capture the value); "
              "greedy benefits more from extra depots."),
    "abl-base": ("Monotone degradation with growing base: on tau in [1,50] "
                 "the rounding loss always beats the class-count saving, and "
                 "b=6 loses to greedy outright. The paper's b=2 is right."),
    "abl-baselines": ("Charge-everything costs several times greedy, "
                      "quantifying the paper's Section III.C remark. "
                      "Periodic-without-merging coincides with greedy on a "
                      "shared grid — the power-of-two merging is the entire "
                      "source of the algorithm's advantage."),
    "abl-tiebreak": ("Deferring equal-cost patch attachments (this library's "
                     "improvement) dominates the paper-faithful front-loading "
                     "at every ΔT, most dramatically under extreme "
                     "instability."),
    "abl-deployment": ("The advantage lives in the cycle structure, not the "
                       "coordinates: clustered and grid layouts keep ratios "
                       "close to the uniform headline number."),
}


def headline_pair(result: SweepResult) -> tuple[str, str] | None:
    """The (algorithm, baseline) pair whose ratio a panel reports:
    the first configured algorithm against 'greedy' when present."""
    algs = result.algorithms
    if "greedy" in algs:
        for a in algs:
            if a != "greedy":
                return a, "greedy"
    if len(algs) >= 2:
        return algs[0], algs[1]
    return None


def _heading(spec: FigureSpec) -> str:
    return f"{spec.figure_id} — {spec.title}"


def _anchor(heading: str) -> str:
    """GitHub's anchor for a heading: lower-cased, punctuation other than
    ``-`` and ``_`` dropped, each space a hyphen."""
    return re.sub(r"[^\w\- ]", "", heading.lower()).replace(" ", "-")


def _markdown_table(header: list[str], rows: list[list]) -> str:
    def fmt(v) -> str:
        if isinstance(v, float):
            # Ratios and other small quantities need real precision;
            # service costs in metres do not.
            return f"{v:.3f}" if abs(v) < 100 else f"{v:,.1f}"
        return str(v)

    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    lines += ["| " + " | ".join(fmt(c) for c in row) + " |" for row in rows]
    return "\n".join(lines)


def _verdict(broken: list[str]) -> str:
    """A panel's shape-check verdict from the claims its sweep breaks."""
    return "FAIL: " + "; ".join(broken) if broken else "PASS"


def figure_markdown(spec: FigureSpec, result: SweepResult, broken: list[str]) -> str:
    """One panel's paper-vs-measured markdown section; ``broken`` is
    ``spec.check(result)``."""
    setup = result.points[0].config if result.points else spec.base
    pair = headline_pair(result)

    header = result.header()
    rows = result.rows()
    if pair is not None:
        header = header + [f"{pair[0]}/{pair[1]}"]
        rows = [row + [float(r)]
                for row, r in zip(rows, result.ratio_series(*pair))]

    out = [f"### {_heading(spec)}", ""]
    out.append(f"*Paper claim:* {spec.paper_claim}")
    out.append("")
    out.append(f"*Setup:* `{setup.describe()}`, sweeping `{spec.parameter}` "
               f"over {list(result.values)}.")
    out.append("")
    out.append(_markdown_table(header, rows))
    out.append("")
    if pair is not None:
        ratios = result.ratio_series(*pair)
        out.append(f"*Measured:* mean {pair[0]}/{pair[1]} cost ratio "
                   f"**{float(np.mean(ratios)):.3f}** "
                   f"(min {ratios.min():.3f}, max {ratios.max():.3f}).")
    deaths = sum(int(result.deaths(a).sum()) for a in result.algorithms)
    out.append("*Perpetuity:* no sensor ever ran out of energy."
               if deaths == 0 else
               f"*Perpetuity:* **{deaths} deaths recorded** (violation!).")
    out.append(f"*Registered shape check:* **{_verdict(broken)}**.")
    note = DISCUSSION.get(spec.figure_id)
    if note:
        out.append(f"*Notes:* {note}")
    out.append("")
    return "\n".join(out)


def experiments_markdown(
        figure_ids: Iterable[str], *, n_topologies: int | None = None,
        full: bool = False,
        progress: Callable[[str], None] | None = None,
        obs=None, jobs: int = 1) -> str:
    """Run the given figures and render the full document (summary table
    first, then one section per figure). ``obs`` (optional
    :class:`~repro.obs.instrument.Instrumentation`) is forwarded to every
    figure run, ``jobs`` to every sweep (parallel topology jobs; results
    are identical to the serial path)."""
    ids = list(figure_ids)
    sections: list[str] = []
    summary_rows: list[str] = []
    for fid in ids:
        spec = FIGURES[fid]
        if progress is not None:
            progress(f"[report] running {fid} ...")
        t0 = time.perf_counter()
        result = spec.run(n_topologies=n_topologies, full=full,
                          progress=progress, obs=obs, jobs=jobs)
        elapsed = time.perf_counter() - t0
        broken = spec.check(result)
        sections.append(figure_markdown(spec, result, broken)
                        + f"*(run time {elapsed:.0f}s)*\n")

        pair = headline_pair(result)
        ratio = (f"{float(np.mean(result.ratio_series(*pair))):.3f} "
                 f"({pair[0]}/{pair[1]})" if pair else "—")
        deaths = sum(int(result.deaths(a).sum()) for a in result.algorithms)
        alive = "yes" if deaths == 0 else f"NO ({deaths} deaths)"
        summary_rows.append(
            f"| [{fid}](#{_anchor(_heading(spec))}) | {ratio} | {alive} "
            f"| {_verdict(broken)} |")

    reps = n_topologies if n_topologies is not None else "figure defaults"
    head = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Generated by `repro report`. Absolute service costs are not",
        "expected to match the paper (different random topologies and an",
        "independent simulator); the *shapes* — who wins, by what factor,",
        "where the crossovers fall — are the reproduction targets.",
        "",
        f"Repetitions per sweep point: {reps} "
        f"(paper: 100). Grid: {'paper-dense' if full else 'coarse'}.",
        "",
        "## Summary",
        "",
        "| figure | mean cost ratio | perpetual | shape check |",
        "|---|---|---|---|",
        *summary_rows,
        "",
    ]
    return "\n".join(head) + "\n" + "\n".join(sections)
