"""Scenario instance generation and the six built-in scenarios.

:func:`build_instance` materialises topology ``r`` of a
:class:`~repro.experiments.config.ScenarioSpec` — network, workload,
dynamics — as a pure function of ``(spec, r)``. It is the run executor's
own instance builder (:func:`repro.experiments.runner.build_instance`,
re-exported here), so a scenario scored serially, scored under
``--jobs N``, or rebuilt in a test process produces byte-identical
topologies and (for a fixed policy) byte-identical event streams. :func:`instance_digest` packages exactly
that witness — sha256 of the topology document and of a canonical greedy
run's merged event log — for determinism tests and ``--jobs``
differentials.

Built-in scenarios (all registered at import):

=========================  =====================================================
``dense-urban``            clustered hotspots packed into a small square
``sparse-wide-area``       few sensors spread over kilometres, fixed cycles
``heterogeneous-batteries``uniform layout, capacities drawn from ``[0.5, 3]``
``high-churn``             sensors leaving/rejoining throughout the run
``failure-storm``          charger breakdowns + churn + requests simultaneously
``request-burst``          heavy Poisson on-demand charging-request arrivals
=========================  =====================================================

Sizes are deliberately small (24–48 sensors): the suite is a regression
*gate*, run on every PR; coverage across regimes matters more than scale
(the ``full`` suite raises both size and repetitions).
"""

from __future__ import annotations

import hashlib
import json

from repro.baselines.greedy import GreedyOnDemandPolicy
from repro.experiments.runner import build_instance
from repro.experiments.config import ExperimentConfig
from repro.io.network_json import network_to_dict
from repro.scenarios.registry import (
    ScenarioSpec,
    SuiteSpec,
    register_policy,
    register_scenario,
    register_suite,
)
from repro.sim.engine import simulate

__all__ = ["build_instance", "instance_digest"]


def instance_digest(spec: ScenarioSpec, topology: int = 0, *,
                    events: bool = True) -> dict[str, str]:
    """Determinism witness of one instance: content hashes of everything
    the generator produced.

    Returns ``{"topology": sha256, "events": sha256}`` where ``topology``
    hashes the canonical network document (coordinates, cycles, batteries
    at full float precision) and ``events`` hashes the merged per-event
    JSONL of a canonical greedy run — slot boundaries, dispatches,
    charges, deaths, plus every failure/churn/request event the dynamic
    sources emitted. Two processes (or ``--jobs`` modes) generated the
    same instance iff these digests match; the determinism test and the
    score CLI's cross-process guarantees rest on exactly this function
    being importable (and equal) everywhere.
    """
    inst = build_instance(spec, topology)
    doc = json.dumps(network_to_dict(inst.network), sort_keys=True,
                     separators=(",", ":"))
    out = {"topology": hashlib.sha256(doc.encode()).hexdigest()}
    if events:
        policy = GreedyOnDemandPolicy(threshold=inst.config.tau_min)
        result = simulate(inst.network, policy, inst.workload,
                          inst.config.horizon, sources=inst.build_sources())
        stream = result.metrics.event_log_jsonl()
        out["events"] = hashlib.sha256(stream.encode()).hexdigest()
    return out


# --------------------------------------------------------------------------
# Built-in scenarios. One shared base keeps the suite paper-flavoured
# (linear cycle distribution, depot 0 on the base station) while each
# scenario stresses one regime. All seeds are fixed: the suite is a gate,
# not a sampler.
# --------------------------------------------------------------------------

_BASE = ExperimentConfig(
    n=36, q=4, side=1000.0, horizon=120.0,
    distribution="linear", tau_min=2.0, tau_max=40.0, sigma=2.0,
    variable=True, slot_duration=10.0,
    algorithms=("mtd", "greedy"),  # unused by the scorer (POLICIES rules)
    n_topologies=2, seed=20140808)

register_scenario(ScenarioSpec(
    name="dense-urban",
    description="clustered hotspots packed into a 300 m square",
    config=_BASE.with_(n=48, side=300.0, deployment="clustered")))

register_scenario(ScenarioSpec(
    name="sparse-wide-area",
    description="24 sensors across 3 km, fixed cycles (offline regime)",
    config=_BASE.with_(n=24, q=3, side=3000.0, variable=False,
                       tau_min=5.0, tau_max=50.0)))

register_scenario(ScenarioSpec(
    name="heterogeneous-batteries",
    description="uniform layout, battery capacities drawn from [0.5, 3.0]",
    config=_BASE,
    battery_range=(0.5, 3.0)))

register_scenario(ScenarioSpec(
    name="high-churn",
    description="sensors leave and rejoin all run long (rate 0.15, down 12)",
    config=_BASE.with_(churn_rate=0.15, churn_downtime=12.0, dynamics_seed=7)))

register_scenario(ScenarioSpec(
    name="failure-storm",
    description="charger breakdowns + churn + requests, simultaneously",
    config=_BASE.with_(q=5, failure_rate=0.04, failure_mttr=8.0,
                       churn_rate=0.05, churn_downtime=10.0,
                       request_rate=0.3, dynamics_seed=7)))

register_scenario(ScenarioSpec(
    name="request-burst",
    description="heavy Poisson on-demand charging requests (rate 1.5)",
    config=_BASE.with_(horizon=100.0, request_rate=1.5, dynamics_seed=7)))


# Scoreboard policies: the paper's planner, its Section-VI adaptive
# variant, and the greedy comparator. Policy PRs extend this list via
# register_policy and land on every scorecard automatically.
register_policy("mtd")
register_policy("mtd-var", requires_variable=True)
register_policy("greedy")


register_suite(SuiteSpec(
    name="quick",
    description="every scenario at gate size (2 topologies) — CI and "
                "pre-commit regression checks",
))

register_suite(SuiteSpec(
    name="full",
    description="the same scenarios at 5 topologies and double horizon",
    overrides={"n_topologies": 5, "horizon": 240.0},
))
