"""Registries for named scenarios, scoreable policies and suites.

The scenario evaluation framework has three registries:

* :data:`SCENARIOS` — named, seed-deterministic scenario generators.
  A :class:`~repro.experiments.config.ScenarioSpec` (re-exported here)
  wraps an :class:`~repro.experiments.config.ExperimentConfig` (topology
  size, workload, :class:`~repro.sim.sources.ScenarioDynamics` rates)
  plus the framework-only knobs (battery heterogeneity). Topology
  ``r`` of a spec is a pure function of ``(spec, r)`` — built by the run
  executor's own instance builder — so generation is byte-identical
  across processes and ``--jobs`` settings.
* :data:`POLICIES` — named policies the scorer runs over the suite. A
  :class:`PolicyEntry` maps a scoreboard name to one of the runner's
  algorithm names (:data:`~repro.experiments.config.KNOWN_ALGORITHMS`),
  with a compatibility predicate (adaptive policies need a variable
  workload). Future policy PRs call :func:`register_policy` once and
  appear on every scorecard.
* :data:`SUITES` — named scenario collections with per-suite overrides
  (``quick`` runs every scenario small enough for CI; ``full`` raises
  sizes and repetitions).

Registration is idempotent-by-name and fails loudly on collisions, so a
plugin registering twice (e.g. under pytest re-imports) surfaces
immediately instead of silently shadowing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import ConfigError
from repro.experiments.config import KNOWN_ALGORITHMS, ScenarioSpec

__all__ = [
    "ScenarioSpec", "PolicyEntry", "SuiteSpec",
    "SCENARIOS", "POLICIES", "SUITES",
    "register_scenario", "register_policy", "register_suite",
    "get_scenario", "get_suite", "scenario_names", "policy_names",
]


@dataclass(frozen=True)
class PolicyEntry:
    """One scoreboard policy.

    Parameters
    ----------
    name:
        Scoreboard name (usually equals ``algorithm``).
    algorithm:
        Runner algorithm id, one of
        :data:`~repro.experiments.config.KNOWN_ALGORITHMS`
        (:func:`~repro.experiments.runner.make_policy` instantiates it).
    requires_variable:
        If true the policy only runs on variable-workload scenarios and
        scores ``null`` elsewhere (e.g. the Section-VI adaptive planner).
    """

    name: str
    algorithm: str
    requires_variable: bool = False

    def __post_init__(self) -> None:
        if self.algorithm not in KNOWN_ALGORITHMS:
            raise ConfigError(
                f"PolicyEntry {self.name!r}: unknown algorithm "
                f"{self.algorithm!r}; known: {KNOWN_ALGORITHMS}")

    def compatible(self, spec: ScenarioSpec) -> bool:
        return spec.config.variable or not self.requires_variable


@dataclass(frozen=True)
class SuiteSpec:
    """A named collection of scenarios with per-suite config overrides.

    ``overrides`` are applied to every member's ``ExperimentConfig``
    (``n_topologies`` is the typical knob); an empty ``scenarios`` tuple
    means "every registered scenario, in registration order".
    """

    name: str
    description: str
    scenarios: tuple[str, ...] = ()
    overrides: Mapping[str, Any] = field(default_factory=dict)

    def members(self) -> tuple[ScenarioSpec, ...]:
        """Resolve to concrete (override-applied) scenario specs."""
        names = self.scenarios if self.scenarios else tuple(SCENARIOS)
        specs = []
        for name in names:
            spec = get_scenario(name)
            if self.overrides:
                spec = spec.with_overrides(**self.overrides)
            specs.append(spec)
        return tuple(specs)


SCENARIOS: dict[str, ScenarioSpec] = {}
POLICIES: dict[str, PolicyEntry] = {}
SUITES: dict[str, SuiteSpec] = {}


def _register(registry: dict, key: str, value: Any, kind: str) -> Any:
    existing = registry.get(key)
    if existing is not None:
        if existing == value:  # idempotent re-registration (re-imports)
            return value
        raise ConfigError(f"{kind} {key!r} is already registered "
                          f"with a different definition")
    registry[key] = value
    return value


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Add a scenario generator to the registry (idempotent by content)."""
    return _register(SCENARIOS, spec.name, spec, "scenario")


def register_policy(name: str, algorithm: str | None = None, *,
                    requires_variable: bool = False) -> PolicyEntry:
    """Add a policy to the scoreboard (idempotent by content)."""
    entry = PolicyEntry(name=name, algorithm=algorithm or name,
                        requires_variable=requires_variable)
    return _register(POLICIES, entry.name, entry, "policy")


def register_suite(suite: SuiteSpec) -> SuiteSpec:
    """Add a named suite (idempotent by content)."""
    return _register(SUITES, suite.name, suite, "suite")


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigError(f"unknown scenario {name!r}; registered: "
                          f"{sorted(SCENARIOS)}") from None


def get_suite(name: str) -> SuiteSpec:
    try:
        return SUITES[name]
    except KeyError:
        raise ConfigError(f"unknown suite {name!r}; registered: "
                          f"{sorted(SUITES)}") from None


def scenario_names() -> tuple[str, ...]:
    """Registered scenario names, in registration order."""
    return tuple(SCENARIOS)


def policy_names() -> tuple[str, ...]:
    """Registered policy names, in registration order."""
    return tuple(POLICIES)
