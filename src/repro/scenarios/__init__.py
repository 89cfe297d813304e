"""Scenario evaluation framework: named scenarios, a policy scoreboard,
and a golden regression gate (``repro score``).

Importing this package registers the six built-in scenarios
(``dense-urban``, ``sparse-wide-area``, ``heterogeneous-batteries``,
``high-churn``, ``failure-storm``, ``request-burst``), the scoreboard
policies, and the ``quick``/``full`` suites.
"""

from repro.scenarios.generators import build_instance, instance_digest
from repro.scenarios.golden import (
    GATED_KEYS,
    METRICS,
    MetricSpec,
    Regression,
    compare_scorecards,
    default_baseline_path,
)
from repro.scenarios.registry import (
    POLICIES,
    SCENARIOS,
    SUITES,
    PolicyEntry,
    ScenarioSpec,
    SuiteSpec,
    get_scenario,
    get_suite,
    policy_names,
    register_policy,
    register_scenario,
    register_suite,
    scenario_names,
)
from repro.scenarios.score import (
    METRIC_KEYS,
    SCORECARD_KIND,
    Scorecard,
    score_suite,
)

__all__ = [
    "ScenarioSpec", "PolicyEntry", "SuiteSpec",
    "SCENARIOS", "POLICIES", "SUITES",
    "register_scenario", "register_policy", "register_suite",
    "get_scenario", "get_suite", "scenario_names", "policy_names",
    "build_instance", "instance_digest",
    "Scorecard", "score_suite", "SCORECARD_KIND", "METRIC_KEYS",
    "MetricSpec", "METRICS", "GATED_KEYS", "Regression",
    "compare_scorecards", "default_baseline_path",
]
