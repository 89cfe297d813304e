"""Score every registered policy over a scenario suite.

One ``(scenario, topology)`` pair is one job of the run executor
(:func:`~repro.experiments.runner.run_table`): it materialises the
instance once, then runs every compatible policy against the *shared*
workload and the *replayed* dynamic-event history (common random numbers,
the paper's own variance-reduction trick). Every job of the suite goes
through one executor call — in-process, or one ``ProcessPoolExecutor``
under ``jobs > 1`` — with identical results for every gated metric. Each
scorecard cell is the result table's one metric fold
(:func:`~repro.experiments.runner.fold_metrics`) of its ``(scenario,
policy)`` rows — the same rows a figure panel reads.

Each policy run collects into a fresh, private
:class:`~repro.obs.instrument.Instrumentation` context, which is where
the planner-health dimensions come from: replan counts and latencies from
the ``plan``/``replan`` spans, cache hit rates from the
``plan.cache.tours.*`` counters. Wall-clock dimensions
(``replan_latency_*``) are measured, not derived, so they are reported on
the scorecard but never regression-gated (see
:mod:`repro.scenarios.golden` for which metrics gate).

The result is a :class:`Scorecard`: ``scenario -> policy -> metric``
(``None`` marks an incompatible pair), serialised to ``SCORECARD.json``
through the standard envelope (:mod:`repro.io.files`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.errors import ConfigError
from repro.experiments.runner import METRIC_KEYS, run_table
from repro.obs.instrument import Instrumentation, ensure
from repro.obs.log import get_logger
from repro.scenarios.registry import (
    POLICIES,
    ScenarioSpec,
    get_suite,
    policy_names,
)

__all__ = ["Scorecard", "score_suite", "SCORECARD_KIND", "METRIC_KEYS"]

log = get_logger(__name__)

#: Envelope kind of a serialised scorecard (see :mod:`repro.io.files`).
SCORECARD_KIND = "scorecard"


@dataclass(frozen=True)
class Scorecard:
    """``scenario -> policy -> metric`` results for one suite run.

    ``None`` at the policy level marks an incompatible pair (e.g. an
    adaptive policy on a fixed-cycle scenario); ``None`` at the metric
    level marks an undefined dimension (no replans to take a percentile
    of). Ordering is canonical — scenarios in suite order, policies in
    registry order, metrics in :data:`METRIC_KEYS` order — so serialised
    scorecards from equal runs are byte-equal.
    """

    suite: str
    policies: tuple[str, ...]
    scenarios: dict[str, dict[str, dict[str, float | None] | None]] = \
        field(default_factory=dict)

    # ------------------------------------------------------------ accessors
    def metrics(self, scenario: str, policy: str) -> dict[str, float | None] | None:
        return self.scenarios.get(scenario, {}).get(policy)

    @property
    def n_cells(self) -> int:
        """Scored (scenario, policy) pairs, skips excluded."""
        return sum(1 for by_policy in self.scenarios.values()
                   for m in by_policy.values() if m is not None)

    def gated_view(self, gated_keys: tuple[str, ...]) -> dict[str, Any]:
        """The deterministic sub-scorecard (regression-gated metrics only).

        Two runs of the same suite at the same code must produce equal
        gated views regardless of ``--jobs``, machine load or wall time —
        the determinism test asserts exactly this.
        """
        out: dict[str, Any] = {}
        for scenario, by_policy in self.scenarios.items():
            out[scenario] = {
                policy: None if m is None
                else {k: m[k] for k in gated_keys if k in m}
                for policy, m in by_policy.items()
            }
        return out

    # -------------------------------------------------------- serialisation
    def to_dict(self) -> dict[str, Any]:
        return {"suite": self.suite, "policies": list(self.policies),
                "metrics": list(METRIC_KEYS), "scenarios": self.scenarios}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scorecard":
        try:
            return cls(suite=str(data["suite"]),
                       policies=tuple(data["policies"]),
                       scenarios={str(s): {str(p): (None if m is None else dict(m))
                                           for p, m in by_policy.items()}
                                  for s, by_policy in data["scenarios"].items()})
        except (KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(f"malformed scorecard document ({exc})") from exc

    def save(self, path: str | Path) -> Path:
        from repro.io.files import save_json

        return save_json(path, SCORECARD_KIND, self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "Scorecard":
        from repro.io.files import load_json

        return cls.from_dict(load_json(path, SCORECARD_KIND))


def score_suite(suite: str = "quick",
                policies: tuple[str, ...] | None = None, *,
                jobs: int = 1,
                obs: Instrumentation | None = None,
                progress: Callable[[str], None] | None = None) -> Scorecard:
    """Run every (registered or selected) policy over the suite.

    Parameters
    ----------
    suite:
        Registered suite name (``"quick"``, ``"full"``, ...).
    policies:
        Optional subset of registered policy names (default: all).
    jobs:
        Worker processes for the instance jobs. Gated metrics are
        identical for every value of ``jobs``.
    obs:
        Optional instrumentation: counts ``score.instances`` /
        ``score.cells`` and wraps the run in a ``score`` span.
    progress:
        Optional per-scenario progress callback.
    """
    suite_spec = get_suite(suite)
    specs = suite_spec.members()
    selected = tuple(policies) if policies is not None else policy_names()
    unknown = set(selected) - set(POLICIES)
    if unknown:
        raise ConfigError(f"unknown policies {sorted(unknown)}; "
                          f"registered: {sorted(POLICIES)}")
    if not selected:
        raise ConfigError("score_suite: no policies selected")
    entries = tuple(POLICIES[name] for name in selected)
    runnable = [tuple(e for e in entries if e.compatible(spec)) for spec in specs]

    o = ensure(obs)

    def done(n_done: int, spec: ScenarioSpec, topology: int) -> None:
        o.incr("score.instances")

    with o.span("score", suite=suite, scenarios=len(specs),
                policies=len(entries), jobs=jobs):
        table = run_table(
            specs, [tuple(e.algorithm for e in ents) for ents in runnable],
            jobs=jobs, obs=obs, on_done=done)

    scenarios: dict[str, dict[str, dict[str, float | None] | None]] = {}
    for i, (spec, ents) in enumerate(zip(specs, runnable)):
        per_policy: dict[str, dict[str, float | None] | None] = \
            dict.fromkeys(selected)
        for entry in ents:
            per_policy[entry.name] = table.metrics(spec, entry.algorithm)
            o.incr("score.cells")
        scenarios[spec.name] = per_policy
        if progress is not None:
            progress(f"[{i + 1}/{len(specs)}] {spec.name}: "
                     f"{len(ents)}/{len(entries)} policies scored")
    return Scorecard(suite=suite, policies=selected, scenarios=scenarios)
