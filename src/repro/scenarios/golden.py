"""Golden-scorecard comparison: the regression gate behind ``repro score``.

A *golden* scorecard is a checked-in :class:`~repro.scenarios.score.Scorecard`
(``golden/SCORECARD.<suite>.json``) recording the blessed value of every
gated metric. :func:`compare_scorecards` diffs a fresh run against it with
per-metric direction and tolerance from the :data:`METRICS` table and
returns the list of :class:`Regression` drifts; the CLI exits non-zero if
any survive.

Gating policy, per metric:

* **gated** metrics are deterministic (pure functions of scenario seeds
  and code) — any drift past tolerance is a real behaviour change, and
  drift in the *worse* direction fails the gate. Improvements are
  reported (so the golden can be re-blessed) but never fail.
* **informational** metrics (wall-clock replan latencies, raw dispatch
  and energy totals) appear on the scorecard for humans and dashboards
  but are never compared.

Tolerances are deliberately tight: gated metrics replay identical event
histories, so the only legitimate source of drift is a code change —
which is exactly what should re-bless the golden via
``repro score --update-golden``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.scenarios.score import Scorecard

__all__ = ["MetricSpec", "METRICS", "GATED_KEYS", "Regression",
           "compare_scorecards", "default_baseline_path"]


@dataclass(frozen=True)
class MetricSpec:
    """Definition of one scoring dimension.

    ``direction`` is ``"lower"`` or ``"higher"`` (which way is better);
    drift past ``max(abs_tol, rel_tol * |baseline|)`` in the worse
    direction is a regression. Non-gated specs are display-only.
    """

    key: str
    label: str
    direction: str
    gated: bool = False
    rel_tol: float = 0.0
    abs_tol: float = 0.0
    fmt: str = "{:.3f}"

    def budget(self, baseline: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(baseline))

    def worse_by(self, current: float, baseline: float) -> float:
        """Signed drift in the *worse* direction (positive = worse)."""
        delta = current - baseline
        return delta if self.direction == "lower" else -delta


#: The fixed scoring dimensions, in scorecard column order. Keys mirror
#: :data:`repro.scenarios.score.METRIC_KEYS` one-to-one (checked by a
#: unit test).
METRICS: tuple[MetricSpec, ...] = (
    MetricSpec("service_cost", "cost", "lower", gated=True,
               rel_tol=0.02, abs_tol=1e-6, fmt="{:.1f}"),
    MetricSpec("deaths", "deaths", "lower", gated=True,
               abs_tol=0.0, fmt="{:.0f}"),
    MetricSpec("dispatches", "disp", "lower", fmt="{:.1f}"),
    MetricSpec("charger_utilization", "util", "higher", gated=True,
               abs_tol=0.02, fmt="{:.3f}"),
    MetricSpec("energy_delivered", "energy", "higher", fmt="{:.2f}"),
    MetricSpec("replan_count", "replans", "lower", gated=True,
               abs_tol=0.5, fmt="{:.1f}"),
    MetricSpec("replan_latency_p50_ms", "p50 ms", "lower", fmt="{:.2f}"),
    MetricSpec("replan_latency_p99_ms", "p99 ms", "lower", fmt="{:.2f}"),
    MetricSpec("cache_hit_rate", "cache", "higher", gated=True,
               abs_tol=0.02, fmt="{:.3f}"),
)

#: Keys of the regression-gated (deterministic) metrics.
GATED_KEYS: tuple[str, ...] = tuple(m.key for m in METRICS if m.gated)

_BY_KEY = {m.key: m for m in METRICS}


@dataclass(frozen=True)
class Regression:
    """One gated metric drifting past tolerance (or lost coverage)."""

    scenario: str
    policy: str
    metric: str
    baseline: float | None
    current: float | None
    #: Positive drift in the worse direction, ``None`` for coverage loss.
    drift: float | None

    def describe(self) -> str:
        if self.drift is None:
            return (f"{self.scenario}/{self.policy}/{self.metric}: "
                    f"baseline has {self.baseline}, current has "
                    f"{self.current} (coverage lost)")
        spec = _BY_KEY[self.metric]
        arrow = "rose" if self.current > self.baseline else "fell"  # type: ignore[operator]
        return (f"{self.scenario}/{self.policy}/{self.metric}: "
                f"{spec.fmt.format(self.baseline)} -> "
                f"{spec.fmt.format(self.current)} "
                f"({arrow} {abs(self.drift):.4g} past tolerance "
                f"{spec.budget(self.baseline):.4g}, "
                f"{spec.direction} is better)")


def compare_scorecards(current: Scorecard, baseline: Scorecard
                       ) -> tuple[list[Regression], list[str]]:
    """Diff ``current`` against the golden ``baseline``.

    Returns ``(regressions, improvements)``: gate-failing drifts, and
    human-readable notes for better-than-golden cells (a hint to
    re-bless). Comparison walks the **baseline's** coverage — every
    scored ``(scenario, policy, gated metric)`` cell in the golden must
    still be scored, and be no worse; cells only present in ``current``
    (a new scenario or policy) are additions, not regressions.
    """
    regressions: list[Regression] = []
    improvements: list[str] = []
    for scenario, by_policy in baseline.scenarios.items():
        for policy, base_metrics in by_policy.items():
            if base_metrics is None:
                continue
            cur_metrics = current.metrics(scenario, policy)
            if cur_metrics is None:
                regressions.append(Regression(
                    scenario=scenario, policy=policy, metric="*",
                    baseline=None, current=None, drift=None))
                continue
            for spec in METRICS:
                if not spec.gated:
                    continue
                base = base_metrics.get(spec.key)
                if base is None:
                    continue  # dimension undefined at blessing time
                cur = cur_metrics.get(spec.key)
                if cur is None:
                    regressions.append(Regression(
                        scenario=scenario, policy=policy, metric=spec.key,
                        baseline=float(base), current=None, drift=None))
                    continue
                worse = spec.worse_by(float(cur), float(base))
                budget = spec.budget(float(base))
                if worse > budget:
                    regressions.append(Regression(
                        scenario=scenario, policy=policy, metric=spec.key,
                        baseline=float(base), current=float(cur), drift=worse))
                elif worse < -budget:
                    improvements.append(
                        f"{scenario}/{policy}/{spec.key}: "
                        f"{spec.fmt.format(float(base))} -> "
                        f"{spec.fmt.format(float(cur))} (improved)")
    return regressions, improvements


def default_baseline_path(suite: str) -> Path:
    """Checked-in golden location for a suite: ``golden/SCORECARD.<suite>.json``
    in the checkout that holds this package, whatever the working directory."""
    return Path(__file__).resolve().parents[3] / "golden" / f"SCORECARD.{suite}.json"
