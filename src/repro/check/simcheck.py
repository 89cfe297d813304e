"""Engine-equivalence differential and the sim-determinism smoke.

Two machine checks behind ``repro check sim`` (and the CI smoke step):

* **Equivalence** — every slotted scenario class (fixed / resampled /
  storm workloads, offline-planned and online-greedy policies) must
  produce *identical* metrics and event sequences on the event-queue core
  (:mod:`repro.sim.engine`) and on the preserved legacy loop
  (:mod:`repro.check.legacy_engine`). Identical means exact float
  equality, event-for-event — the refactor is a proof obligation, not a
  tolerance negotiation.
* **Determinism** — a failure-storm scenario (charger breakdowns + sensor
  churn + charging requests on a storm workload) run twice from one seed
  must serialize to byte-identical event logs
  (:meth:`~repro.sim.metrics.Metrics.event_log_jsonl`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.greedy import GreedyOnDemandPolicy
from repro.check.legacy_engine import simulate_legacy
from repro.core.mintotal import min_total_distance
from repro.network.builder import build_paper_network
from repro.network.cycles import LinearCycleDistribution
from repro.obs.instrument import Instrumentation, ensure
from repro.sim.engine import SimulationResult, simulate
from repro.sim.metrics import Metrics
from repro.sim.policies import PlannedPolicy
from repro.sim.sources import ScenarioDynamics
from repro.sim.workload import FixedWorkload, ResampledWorkload, StormWorkload

__all__ = ["result_diffs", "check_engine_equivalence", "check_determinism",
           "run_failure_storm", "run_sim_check", "FAILURE_STORM"]

#: The canonical failure-storm dynamics used by the determinism smoke:
#: frequent charger breakdowns, sensor churn and request arrivals, all on
#: top of a storm workload.
FAILURE_STORM = ScenarioDynamics(failure_rate=0.02, failure_mttr=8.0,
                                 churn_rate=0.05, churn_downtime=12.0,
                                 request_rate=0.1, seed=0)

#: Event-log names compared field-by-field between two runs.
_LOGS = ("dispatches", "charges", "deaths", "fleet", "churn", "requests")


def _metrics_diffs(a: Metrics, b: Metrics, label: str) -> list[str]:
    problems: list[str] = []
    if a.service_cost != b.service_cost:
        problems.append(f"{label}: service_cost {a.service_cost!r} != "
                        f"{b.service_cost!r}")
    if a.energy_delivered != b.energy_delivered:
        problems.append(f"{label}: energy_delivered {a.energy_delivered!r} != "
                        f"{b.energy_delivered!r}")
    if not np.array_equal(a.per_charger, b.per_charger):
        problems.append(f"{label}: per_charger {a.per_charger.tolist()} != "
                        f"{b.per_charger.tolist()}")
    for name in _LOGS:
        ea, eb = list(getattr(a, name)), list(getattr(b, name))
        if ea != eb:
            k = min(len(ea), len(eb))
            first = next((i for i in range(k) if ea[i] != eb[i]), k)
            problems.append(
                f"{label}: {name} logs diverge at event {first} "
                f"({ea[first] if first < len(ea) else '<absent>'} vs "
                f"{eb[first] if first < len(eb) else '<absent>'}; "
                f"lengths {len(ea)}/{len(eb)})")
    return problems


def result_diffs(a: SimulationResult, b: SimulationResult,
                 label: str = "run") -> list[str]:
    """Exact (bit-level) differences between two simulation results."""
    problems = _metrics_diffs(a.metrics, b.metrics, label)
    if not np.array_equal(a.final_energy, b.final_energy):
        worst = int(np.argmax(np.abs(a.final_energy - b.final_energy)))
        problems.append(
            f"{label}: final_energy differs (sensor {worst}: "
            f"{float(a.final_energy[worst])!r} vs "
            f"{float(b.final_energy[worst])!r})")
    return problems


@dataclass(frozen=True)
class _SlottedCase:
    name: str
    workload_kind: str  # "fixed" | "resampled" | "storm"
    policy_kind: str    # "planned" | "greedy"


_CASES = (
    _SlottedCase("fixed/planned", "fixed", "planned"),
    _SlottedCase("fixed/greedy", "fixed", "greedy"),
    _SlottedCase("resampled/planned", "resampled", "planned"),
    _SlottedCase("resampled/greedy", "resampled", "greedy"),
    _SlottedCase("storm/planned", "storm", "planned"),
    _SlottedCase("storm/greedy", "storm", "greedy"),
)


def _make_workload(kind: str, net, seed: int):
    if kind == "fixed":
        return FixedWorkload.from_network(net)
    if kind == "resampled":
        return ResampledWorkload(network=net,
                                 distribution=LinearCycleDistribution(),
                                 slot_duration=10.0, seed=seed)
    side = float(net.coordinates[: net.n, 0].max() - net.coordinates[: net.n, 0].min())
    cx = float(net.coordinates[: net.n, 0].mean())
    cy = float(net.coordinates[: net.n, 1].mean())
    storms = ((20.0, 40.0, cx, cy, max(side / 3.0, 1.0), 1.5),
              (60.0, 70.0, cx, cy, max(side / 4.0, 1.0), 2.0))
    return StormWorkload(network=net, storms=storms, slot_duration=5.0)


def _make_policy(kind: str, net, horizon: float):
    if kind == "planned":
        return PlannedPolicy(min_total_distance(net, horizon).plan)
    return GreedyOnDemandPolicy()


def check_engine_equivalence(seed: int = 0, *,
                             obs: Instrumentation | None = None) -> list[str]:
    """Prove the event-queue core replays every slotted scenario class
    identically to the legacy loop; returns human-readable differences."""
    o = ensure(obs)
    problems: list[str] = []
    net = build_paper_network(n=30, q=2, seed=seed)
    horizon = 100.0
    for case in _CASES:
        o.incr("check.sim.equivalence.cases")
        workload = _make_workload(case.workload_kind, net, seed)
        policy = _make_policy(case.policy_kind, net, horizon)
        reference = simulate_legacy(net, policy, workload, horizon)
        candidate = simulate(net, policy, workload, horizon)
        found = result_diffs(reference, candidate, label=case.name)
        for p in found:
            o.incr("check.sim.equivalence.fail")
        problems.extend(found)
    return problems


def run_failure_storm(seed: int = 0, **sim_kwargs) -> SimulationResult:
    """One run of the canonical failure-storm scenario: greedy on-demand
    charging of a 24-sensor network under a storm workload and
    :data:`FAILURE_STORM` dynamics, both seeded by ``seed``. Extra keyword
    arguments (``max_log_events``, ``event_spill``, ...) go to
    :func:`~repro.sim.engine.simulate`."""
    net = build_paper_network(n=24, q=2, seed=seed)
    workload = _make_workload("storm", net, seed)
    return simulate(net, GreedyOnDemandPolicy(), workload, 150.0,
                    sources=FAILURE_STORM.with_seed(seed).build_sources(),
                    **sim_kwargs)


def check_determinism(seed: int = 0, *,
                      obs: Instrumentation | None = None) -> list[str]:
    """Run the canonical failure-storm scenario twice from one seed and
    assert byte-identical serialized event logs."""
    o = ensure(obs)
    a, b = run_failure_storm(seed), run_failure_storm(seed)
    problems = result_diffs(a, b, label="failure-storm")
    if a.metrics.event_log_jsonl() != b.metrics.event_log_jsonl():
        problems.append("failure-storm: serialized event logs are not "
                        "byte-identical across two same-seed runs")
    if not (a.metrics.fleet and a.metrics.churn and a.metrics.requests):
        problems.append(
            "failure-storm: scenario produced no dynamic events "
            f"(fleet={len(a.metrics.fleet)}, churn={len(a.metrics.churn)}, "
            f"requests={len(a.metrics.requests)}) — the smoke is vacuous")
    for p in problems:
        o.incr("check.sim.determinism.fail")
    o.incr("check.sim.determinism.runs")
    return problems


def run_sim_check(seed: int = 0, *,
                  obs: Instrumentation | None = None) -> list[str]:
    """Equivalence + determinism; empty list means everything holds."""
    return (check_engine_equivalence(seed, obs=obs)
            + check_determinism(seed, obs=obs))
