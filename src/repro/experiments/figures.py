"""The figure registry: one runnable spec per panel of the paper.

The paper's evaluation (Section VII) consists of six figures / eight
panels; each has a :class:`FigureSpec` here capturing its sweep, fixed
parameters, the qualitative claim the reproduction must match and the
checks that hold a finished sweep to it. The CLI and the panel benchmark
(``benchmarks/bench_figures.py``) both resolve figures through this
registry, so the definition of every experiment lives in exactly one place.

A panel resolves to scenario specs, one point per swept value
(:meth:`FigureSpec.points`), and runs them through the same executor and
result table as the scorecard. The points are not registered scenarios:
the scoring suites do not run them.

Default sweep grids are slightly coarser than the paper's (e.g. 6 values of
``tau_max`` instead of 50) and default repetitions lower than the paper's
100 topologies; pass ``full=True`` / a higher ``n_topologies`` for the
dense version — the estimator is identical either way.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigError
from repro.experiments.config import ExperimentConfig, ScenarioSpec
from repro.experiments.sweeps import SweepResult, _run_points
from repro.obs.instrument import Instrumentation

__all__ = ["FigureSpec", "FIGURES", "get_figure"]

ProgressFn = Callable[[str], None]
Check = Callable[[SweepResult], list[str]]


@dataclass(frozen=True)
class FigureSpec:
    """One panel of the paper's evaluation.

    Parameters
    ----------
    figure_id:
        Short id (``fig1a`` ... ``fig6``, ``abl-*``).
    title:
        The panel caption, paraphrased.
    parameter / values / values_full:
        The sweep: coarse default grid and the paper-dense grid.
    base:
        The cell template with all fixed parameters.
    paper_claim:
        The qualitative result the paper reports for this panel.
    check:
        The claim as checks on the finished sweep: returns the claims it
        breaks, each naming its quantity, bound and measured value (an
        empty list is a PASS). ``repro run``, ``repro report`` and
        ``benchmarks/bench_figures.py`` all print or assert this verdict.
    """

    figure_id: str
    title: str
    parameter: str
    values: tuple
    values_full: tuple
    base: ExperimentConfig
    paper_claim: str
    check: Check

    def points(self, *, n_topologies: int | None = None, full: bool = False,
               overrides: dict | None = None) -> tuple[ScenarioSpec, ...]:
        """The panel as scenario specs, one per swept value (coarse grid
        unless ``full``): the panel's base spec with the parameter
        overridden, as a suite resolves its members.

        ``n_topologies`` and ``overrides`` patch the base first (e.g.
        ``{"failure_rate": 0.01, "failure_mttr": 5.0}`` re-runs any paper
        panel under charger breakdowns); ``overrides`` may not name the
        swept parameter itself."""
        base = self.base
        if n_topologies is not None:
            base = base.with_(n_topologies=n_topologies)
        if overrides:
            if self.parameter in overrides:
                raise ConfigError(
                    f"figure {self.figure_id} sweeps {self.parameter!r}; "
                    f"it cannot also be overridden")
            base = base.with_(**overrides)
        spec = ScenarioSpec(self.figure_id, self.title, base)
        return tuple(spec.with_overrides(**{self.parameter: v})
                     for v in (self.values_full if full else self.values))

    def run(self, *, n_topologies: int | None = None, full: bool = False,
            progress: ProgressFn | None = None,
            obs: Instrumentation | None = None,
            jobs: int = 1, cache_dir: str | None = None,
            overrides: dict | None = None) -> SweepResult:
        """Run the panel's :meth:`points` in one executor call; ``jobs > 1``
        fans the topology jobs onto one process pool, ``cache_dir``
        persists plan artifacts across runs (same results either way)."""
        return _run_points(
            self.parameter,
            self.points(n_topologies=n_topologies, full=full,
                        overrides=overrides),
            progress=progress, obs=obs, jobs=jobs, cache_dir=cache_dir)


_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
        "==": operator.eq, "in": lambda got, band: band[0] < got < band[1]}


class _Unvisited(Exception):
    """A claim is about sweep values the run did not visit."""


def _at(result: SweepResult, where: str | None = None) -> np.ndarray:
    """Mask of the sweep values ``where`` names (``"tau_max>=35"``,
    ``"deployment=grid"``; all values when ``None``). Raises
    :class:`_Unvisited` when the sweep visited none of them."""
    values = np.asarray(result.values)
    if where is None:
        return np.ones(values.shape, dtype=bool)
    name, op, value = re.fullmatch(r"(\w+)(<=|>=|<|>|=)(.+)", where).groups()
    if name != result.parameter:
        raise ConfigError(f"claim at {where!r} on a sweep over {result.parameter!r}")
    value = value if values.dtype.kind == "U" else float(value)
    mask = _OPS["==" if op == "=" else op](values, value)
    if not mask.any():
        raise _Unvisited(where)
    return mask


def _deaths(result: SweepResult) -> np.ndarray:
    """Deaths per sweep value, summed over the algorithms."""
    return sum(result.deaths(a) for a in result.algorithms)


def _cost(result: SweepResult, algorithm: str, where: str) -> float:
    """``algorithm``'s mean cost over the sweep values ``where`` names."""
    return result.series(algorithm)[1][_at(result, where)].mean()


def _deaths_per_rate(result: SweepResult) -> np.ndarray:
    """Deaths per unit failure rate at each nonzero swept rate."""
    nonzero = _at(result, "failure_rate>0")
    return _deaths(result)[nonzero] / np.asarray(result.values)[nonzero]


def _steps(a: np.ndarray, *, rel: bool = False) -> np.ndarray:
    """The change between neighbouring sweep values, ``a[i+1] - a[i]`` (the
    quotient when ``rel``); a one-value sweep has none."""
    if a.size < 2:
        raise _Unvisited("a second sweep value")
    return a[1:] / a[:-1] if rel else np.diff(a)


def _claims(*claims: tuple) -> Check:
    """A panel check from ``(text, measure, op, bound)`` claims: it returns
    ``"<text> <op> <bound> (got <measured>)"`` for every claim the finished
    sweep breaks, so an empty list is a PASS. A claim about sweep values the
    run did not visit (shrunken smoke runs) is skipped: no evidence against
    it. ``op`` ``"in"`` is the open band ``(lo, hi)``."""

    def check(result: SweepResult) -> list[str]:
        broken = []
        for text, measure, op, bound in claims:
            try:
                got = float(measure(result))
            except _Unvisited:
                continue
            if not _OPS[op](got, bound):
                shown = f"({bound[0]}, {bound[1]})" if op == "in" else bound
                broken.append(f"{text} {op} {shown} (got {got:.4g})")
        return broken

    return check


def _ratio(stat: str, num: str, den: str, op: str, bound, at: str | None = None) -> tuple:
    """Claim on the ``stat`` (mean/max/min) of the ``num/den`` cost ratio
    across the sweep, or at the values ``at`` names."""
    return (f"{stat} {num}/{den}" + (f" at {at}" if at else ""),
            lambda r: getattr(r.ratio_series(num, den)[_at(r, at)], stat)(), op, bound)


def _gap(num: str, den: str, at: str, ref: str, op: str, bound) -> tuple:
    """Claim on the mean ``num/den`` cost ratio at ``at`` minus that at ``ref``."""
    return (f"mean {num}/{den} at {at} - at {ref}",
            lambda r: (r.ratio_series(num, den)[_at(r, at)].mean()
                       - r.ratio_series(num, den)[_at(r, ref)].mean()),
            op, bound)


def _grows(algorithm: str, lo: str, hi: str, factor: float = 1.0) -> tuple:
    """Claim: ``algorithm``'s mean cost at ``hi`` is more than ``factor``
    times its mean cost at ``lo``."""
    return (f"mean {algorithm} cost at {hi} / at {lo}",
            lambda r: _cost(r, algorithm, hi) / _cost(r, algorithm, lo),
            ">", factor)


_NO_DEATHS = ("deaths", lambda r: _deaths(r).sum(), "==", 0)


# --------------------------------------------------------------------------
# Paper panels
# --------------------------------------------------------------------------

_N_VALUES = (100, 200, 300, 400, 500)
_TAU_VALUES = (2, 5, 10, 20, 35, 50)
_TAU_VALUES_FULL = tuple(range(2, 51, 2))
_DT_VALUES = (1, 2, 4, 10, 20)
_DT_VALUES_FULL = tuple(range(1, 21))
_SIGMA_VALUES = (0, 2, 10, 25, 50)
_SIGMA_VALUES_FULL = tuple(range(0, 51, 5))

_FIXED_LINEAR = ExperimentConfig(distribution="linear", variable=False,
                                 algorithms=("mtd", "greedy"))
_FIXED_RANDOM = _FIXED_LINEAR.with_(distribution="random")
_VAR_LINEAR = ExperimentConfig(distribution="linear", variable=True,
                               slot_duration=10.0,
                               algorithms=("mtd-var", "greedy"))

FIGURES: dict[str, FigureSpec] = {}


def _register(spec: FigureSpec) -> None:
    if spec.figure_id in FIGURES:
        raise ConfigError(f"duplicate figure id {spec.figure_id}")
    FIGURES[spec.figure_id] = spec


_register(FigureSpec(
    figure_id="fig1a",
    title="Service cost vs network size n (linear distribution, fixed cycles)",
    parameter="n", values=_N_VALUES, values_full=_N_VALUES,
    base=_FIXED_LINEAR,
    paper_claim="MinTotalDistance costs 55-60% of Greedy across n = 100..500",
    check=_claims(
        _NO_DEATHS, _ratio("mean", "mtd", "greedy", "in", (0.45, 0.70)),
        _grows("mtd", "n=100", "n=500"), _grows("greedy", "n=100", "n=500")),
))

_register(FigureSpec(
    figure_id="fig1b",
    title="Service cost vs network size n (random distribution, fixed cycles)",
    parameter="n", values=_N_VALUES, values_full=_N_VALUES,
    base=_FIXED_RANDOM,
    paper_claim="MinTotalDistance costs 87-93% of Greedy across n = 100..500",
    check=_claims(_NO_DEATHS, _ratio("mean", "mtd", "greedy", "in", (0.75, 1.02))),
))

_register(FigureSpec(
    figure_id="fig2a",
    title="Service cost vs tau_max (linear distribution, n=200, fixed cycles)",
    parameter="tau_max", values=_TAU_VALUES, values_full=_TAU_VALUES_FULL,
    base=_FIXED_LINEAR.with_(n=200),
    paper_claim=("near-identical for tau_max <= 10, MinTotalDistance wins "
                 "increasingly beyond; gap grows with tau_max"),
    check=_claims(
        _NO_DEATHS, _ratio("mean", "mtd", "greedy", "in", (0.40, 0.70), at="tau_max>=35"),
        _ratio("mean", "mtd", "greedy", ">", 0.85, at="tau_max<=10")),
))

_register(FigureSpec(
    figure_id="fig2b",
    title="Service cost vs tau_max (random distribution, n=200, fixed cycles)",
    parameter="tau_max", values=_TAU_VALUES, values_full=_TAU_VALUES_FULL,
    base=_FIXED_RANDOM.with_(n=200),
    paper_claim="the two algorithms differ only marginally at all tau_max",
    check=_claims(_NO_DEATHS, _ratio("mean", "mtd", "greedy", ">", 0.75),
                  _ratio("max", "mtd", "greedy", "<=", 1.05)),
))

_register(FigureSpec(
    figure_id="fig3",
    title="Service cost vs n (linear, VARIABLE cycles, ΔT=10, sigma=2)",
    parameter="n", values=_N_VALUES, values_full=_N_VALUES,
    base=_VAR_LINEAR,
    paper_claim="MinTotalDistance-var stays clearly cheaper than Greedy",
    check=_claims(_NO_DEATHS, _ratio("mean", "mtd-var", "greedy", "in", (0.45, 0.80)),
                  _grows("mtd-var", "n=100", "n=500")),
))

_register(FigureSpec(
    figure_id="fig4",
    title="Service cost vs tau_max (linear, VARIABLE cycles, n=200, ΔT=10, sigma=2)",
    parameter="tau_max", values=_TAU_VALUES, values_full=_TAU_VALUES_FULL,
    base=_VAR_LINEAR.with_(n=200),
    paper_claim="like Fig 2(a): parity at small tau_max, growing win after",
    check=_claims(
        _NO_DEATHS,
        _ratio("mean", "mtd-var", "greedy", "in", (0.40, 0.80), at="tau_max>=35"),
        _gap("mtd-var", "greedy", "tau_max>=35", "tau_max<=10", "<", 0)),
))

_register(FigureSpec(
    figure_id="fig5",
    title="Service cost vs slot length ΔT (linear, variable, n=200, sigma=2)",
    parameter="slot_duration", values=_DT_VALUES, values_full=_DT_VALUES_FULL,
    base=_VAR_LINEAR.with_(n=200),
    paper_claim=("near-identical to Greedy at ΔT=1 (extreme instability); "
                 "costs fall and the gap opens as ΔT grows; already clearly "
                 "ahead by ΔT=4"),
    check=_claims(
        _NO_DEATHS,
        _ratio("mean", "mtd-var", "greedy", ">", 0.75, at="slot_duration=1"),
        _ratio("mean", "mtd-var", "greedy", "<", 0.70, at="slot_duration>=10"),
        _gap("mtd-var", "greedy", "slot_duration>=10", "slot_duration=1", "<", -0.15),
        ("largest rise of mtd-var/greedy between neighbouring slot_duration values",
         lambda r: _steps(r.ratio_series("mtd-var", "greedy")).max(), "<=", 0.05),
        _grows("mtd-var", "slot_duration>=10", "slot_duration=1")),
))

_register(FigureSpec(
    figure_id="fig6",
    title="Service cost vs cycle variance sigma (linear, variable, n=200, ΔT=10)",
    parameter="sigma", values=_SIGMA_VALUES, values_full=_SIGMA_VALUES_FULL,
    base=_VAR_LINEAR.with_(n=200),
    paper_claim=("both costs increase with sigma; MinTotalDistance-var "
                 "approaches Greedy as sigma reaches 50"),
    check=_claims(
        _NO_DEATHS, _grows("mtd-var", "sigma=0", "sigma=50", 1.5),
        _grows("greedy", "sigma=0", "sigma=50", 1.5),
        _ratio("mean", "mtd-var", "greedy", ">", 0.85, at="sigma=50"),
        _gap("mtd-var", "greedy", "sigma=50", "sigma<=2", ">", 0)),
))

# --------------------------------------------------------------------------
# Ablations beyond the paper (see DESIGN.md)
# --------------------------------------------------------------------------

_register(FigureSpec(
    figure_id="abl-refine",
    title="Ablation: 2-opt refinement of Algorithm 2 tours",
    parameter="n", values=(100, 200, 300), values_full=_N_VALUES,
    base=_FIXED_LINEAR.with_(algorithms=("mtd", "mtd+2opt", "greedy", "greedy+2opt")),
    paper_claim="(beyond paper) refinement shrinks costs without breaking feasibility",
    check=_claims(
        _NO_DEATHS, _ratio("mean", "mtd+2opt", "mtd", "in", (0.5, 0.97)),
        _ratio("max", "mtd+2opt", "mtd", "<=", 1 + 1e-9),
        _ratio("max", "greedy+2opt", "greedy", "<=", 1 + 1e-9),
        _ratio("mean", "mtd+2opt", "greedy+2opt", "<", 0.80)),
))

_register(FigureSpec(
    figure_id="abl-q",
    title="Ablation: sensitivity to charger count q",
    parameter="q", values=(1, 2, 5, 8, 10), values_full=(1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
    base=_FIXED_LINEAR.with_(n=200),
    paper_claim="(beyond paper) more depots reduce cost with diminishing returns",
    check=_claims(
        _NO_DEATHS, _ratio("max", "mtd", "greedy", "<", 0.9),
        ("mtd cost max/min",
         lambda r: r.series("mtd")[1].max() / r.series("mtd")[1].min(), "<", 1.15),
        ("greedy cost at q=1 / at q=10, over mtd's",
         lambda r: (_cost(r, "greedy", "q=1") / _cost(r, "greedy", "q=10")
                    / (_cost(r, "mtd", "q=1") / _cost(r, "mtd", "q=10"))), ">=", 0.98)),
))

_register(FigureSpec(
    figure_id="abl-deployment",
    title="Ablation: deployment pattern (uniform vs clustered vs grid)",
    parameter="deployment", values=("uniform", "clustered", "grid"),
    values_full=("uniform", "clustered", "grid"),
    base=_FIXED_LINEAR.with_(n=200),
    paper_claim=("(beyond paper) the win should survive non-uniform layouts: "
                 "the class structure depends on cycles, not on where "
                 "sensors stand"),
    check=_claims(
        _NO_DEATHS, _ratio("mean", "mtd", "greedy", "in", (0.30, 0.80)),
        _ratio("max", "mtd", "greedy", "<", 0.80),
        _gap("mtd", "greedy", "deployment=clustered", "deployment=uniform", "in", (-0.25, 0.25)),
        _gap("mtd", "greedy", "deployment=grid", "deployment=uniform", "in", (-0.25, 0.25))),
))

_register(FigureSpec(
    figure_id="abl-base",
    title="Ablation: geometric base b of the cycle quantisation (paper: b=2)",
    parameter="quantization_base", values=(2, 3, 4, 6), values_full=(2, 3, 4, 5, 6, 8),
    base=_FIXED_LINEAR.with_(n=200),
    paper_claim=("(beyond paper) a larger base means fewer classes but cruder "
                 "rounding (up to a factor b of over-charging); b=2 should be "
                 "at or near the sweet spot"),
    check=_claims(
        _NO_DEATHS,
        ("greedy cost max/min - 1",
         lambda r: r.series("greedy")[1].max() / r.series("greedy")[1].min() - 1, "<=", 1e-9),
        ("smallest step ratio of mtd cost as quantization_base grows",
         lambda r: _steps(r.series("mtd")[1], rel=True).min(), ">=", 0.98),
        _ratio("mean", "mtd", "greedy", "<", 0.70, at="quantization_base=2"),
        _ratio("mean", "mtd", "greedy", "<", 1.0, at="quantization_base=4")),
))

_register(FigureSpec(
    figure_id="abl-tiebreak",
    title="Ablation: patch tie-breaking (paper-faithful 'immediate' vs 'defer')",
    parameter="slot_duration", values=(1, 4, 10, 20), values_full=_DT_VALUES_FULL,
    base=_VAR_LINEAR.with_(n=200,
                           algorithms=("mtd-var", "mtd-var-defer", "greedy")),
    paper_claim=("(beyond paper) deferring equal-cost patch attachments keeps "
                 "the adaptive policy well below Greedy even at ΔT=1, where "
                 "the paper-faithful tie-break degrades to parity"),
    check=_claims(
        _NO_DEATHS, _ratio("mean", "mtd-var-defer", "mtd-var", "in", (0.3, 1.0)),
        _ratio("max", "mtd-var-defer", "mtd-var", "<=", 1.02),
        _ratio("mean", "mtd-var-defer", "mtd-var", "<", 0.75, at="slot_duration=1"),
        _ratio("max", "mtd-var-defer", "greedy", "<", 0.85)),
))

_register(FigureSpec(
    figure_id="abl-baselines",
    title="Ablation: naive charge-all and periodic-without-merging baselines",
    parameter="n", values=(100, 200), values_full=_N_VALUES,
    base=_FIXED_LINEAR.with_(algorithms=("mtd", "greedy", "naive", "periodic")),
    paper_claim=("(beyond paper) naive charge-all is far worse than everything; "
                 "periodic-without-merging matches greedy under defaults"),
    check=_claims(
        _NO_DEATHS, _ratio("mean", "mtd", "naive", "in", (0.0, 0.5)),
        _ratio("max", "mtd", "naive", "<", 0.5), _ratio("min", "naive", "greedy", ">", 2.0),
        ("max distance of periodic/greedy from 1",
         lambda r: np.abs(r.ratio_series("periodic", "greedy") - 1).max(), "<=", 1e-6)),
))

_register(FigureSpec(
    figure_id="abl-failures",
    title="Ablation: charger breakdowns (failure rate sweep, MTTR=5)",
    parameter="failure_rate", values=(0.0, 0.005, 0.01, 0.02),
    values_full=(0.0, 0.002, 0.005, 0.01, 0.02, 0.05),
    base=_FIXED_LINEAR.with_(n=200, failure_mttr=5.0),
    paper_claim=("(beyond paper) the offline plan degrades gracefully under "
                 "charger breakdowns: deaths rise with the failure rate "
                 "roughly in proportion, with no cliff, while mtd's cost falls "
                 "because skipped tours cost nothing — and the rate-0 endpoint "
                 "equals the static n=200 cell of fig1a"),
    check=_claims(
        ("deaths at failure_rate=0", lambda r: _deaths(r)[_at(r, "failure_rate=0")].sum(), "==", 0),
        ("smallest step of deaths as failure_rate grows",
         lambda r: _steps(_deaths(r)).min(), ">=", 0),
        ("largest step ratio of deaths per unit failure_rate",
         lambda r: _steps(_deaths_per_rate(r), rel=True).max(), "<=", 1.25)),
))


def get_figure(figure_id: str) -> FigureSpec:
    """Resolve a figure id; raises :class:`ConfigError` with the catalogue
    when unknown."""
    try:
        return FIGURES[figure_id]
    except KeyError:
        raise ConfigError(
            f"unknown figure {figure_id!r}; available: {sorted(FIGURES)}") from None
