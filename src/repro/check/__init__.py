"""Differential verification & fault-injection harness.

The library now has several execution paths that must produce the *same*
answers: the staged planner pipeline (cold vs. cached), the serial vs.
parallel experiment executor, and the in-process planner vs. the
:mod:`repro.serve` wire protocol. This package machine-checks that
equivalence, plus the paper's own invariants, on randomized instances:

* :mod:`repro.check.scenario` — small random problem instances as explicit,
  serialisable documents (so failures replay and *shrink*).
* :mod:`repro.check.invariants` — a :class:`~repro.sim.engine.SimulationHooks`
  observer that shadow-integrates every run and verifies energy accounting,
  event monotonicity, full-charge semantics, tour/depot structure and
  service-cost consistency.
* :mod:`repro.check.differential` — the cross-path oracle suite (exact
  solver, cache, executor, serve).
* :mod:`repro.check.fuzz` — the deterministic scenario fuzzer behind
  ``repro check fuzz``, with greedy shrinking to a minimal reproducer.
* :mod:`repro.check.selftest` — plants known mutations and asserts the
  harness catches them (so the checker itself cannot silently rot).
* :mod:`repro.check.faults` — fault injection for the serve stack.
* :mod:`repro.check.legacy_engine` / :mod:`repro.check.simcheck` — the
  frozen pre-event-queue simulation loop and the differential that proves
  the event engine replays it bit for bit (``repro check sim``), plus the
  failure-storm determinism check.

Everything reports through ``check.*`` counters on an optional
:class:`~repro.obs.Instrumentation` context.
"""

from repro.check.differential import CheckFailure, ScenarioChecker, plans_equal
from repro.check.fleetcheck import canonical_response, run_fleet_check
from repro.check.fuzz import FuzzReport, fuzz, replay, shrink
from repro.check.invariants import InvariantChecker, InvariantViolation
from repro.check.scenario import Scenario, random_scenario
from repro.check.selftest import run_selftest
from repro.check.simcheck import (
    check_determinism,
    check_engine_equivalence,
    run_sim_check,
)

__all__ = [
    "Scenario",
    "random_scenario",
    "InvariantChecker",
    "InvariantViolation",
    "ScenarioChecker",
    "CheckFailure",
    "plans_equal",
    "FuzzReport",
    "fuzz",
    "replay",
    "shrink",
    "run_selftest",
    "run_fleet_check",
    "canonical_response",
    "run_sim_check",
    "check_engine_equivalence",
    "check_determinism",
]
