"""The deterministic scenario fuzzer (``repro check fuzz``).

Budgeted loop: iteration ``i`` seeds ``default_rng([seed, i])``, draws one
:func:`~repro.check.scenario.random_scenario`, and runs the differential +
invariant suite on it. The expensive cross-process checks (``serve``,
``executor``) run on a cadence instead of every iteration, so a
``--budget 50`` run stays interactive while still covering them several
times.

On the first failing scenario the fuzzer *shrinks*: it greedily applies
reducing transformations — drop a sensor, drop a depot, round coordinates,
compress the cycle spread (lower ``K``), shorten the horizon, turn off
refine — keeping each edit only if the failure survives, until no edit
reproduces it. The minimal scenario, the failures and the provenance are
written as one replayable JSON reproducer
(:func:`replay` / ``repro check replay`` runs it back).

Everything is deterministic in ``(seed, budget)``: no wall clock, no
global RNG, no ordering dependence — the property CI leans on when it
fuzzes with the commit hash as the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro.check.differential import ALL_CHECKS, CheckFailure, ScenarioChecker
from repro.check.scenario import Scenario, random_scenario
from repro.errors import CheckError
from repro.io.files import load_json, save_json
from repro.obs.instrument import Instrumentation, ensure
from repro.obs.log import get_logger

__all__ = ["FuzzReport", "fuzz", "shrink", "replay", "REPRODUCER_KIND"]

log = get_logger(__name__)

#: Envelope kind of a reproducer file.
REPRODUCER_KIND = "check-reproducer"

#: Hard cap on accepted shrink steps (each step re-runs the failing checks).
_MAX_SHRINK_STEPS = 64


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of one fuzz run.

    Parameters
    ----------
    seed, budget:
        The run's determinism inputs.
    scenarios_run:
        Iterations completed (== ``budget`` on a clean run; the failing
        iteration's 1-based index otherwise).
    failures:
        The failing scenario's check failures (empty = clean run).
    scenario:
        The *shrunk* failing scenario, or ``None``.
    reproducer_path:
        Where the reproducer JSON was written, or ``None``.
    """

    seed: int
    budget: int
    scenarios_run: int
    failures: tuple[CheckFailure, ...] = ()
    scenario: Scenario | None = None
    reproducer_path: Path | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.ok:
            return (f"fuzz: {self.scenarios_run} scenario(s) clean "
                    f"(seed {self.seed})")
        lines = [f"fuzz: FAILED at scenario {self.scenarios_run}/{self.budget} "
                 f"(seed {self.seed})"]
        if self.scenario is not None:
            lines.append(f"  shrunk to: {self.scenario.describe()}")
        lines += [f"  - {f}" for f in self.failures]
        if self.reproducer_path is not None:
            lines.append(f"  reproducer: {self.reproducer_path}")
        return "\n".join(lines)


def _shrink_candidates(scenario: Scenario) -> Iterator[Scenario]:
    """Reducing edits, most aggressive first.

    Each candidate is strictly 'smaller' along some axis (fewer sensors,
    fewer depots, rounder numbers, fewer quantisation classes, shorter
    horizon, fewer knobs), so greedy acceptance terminates.
    """
    doc = scenario.network_doc

    # Drop one sensor (keep at least one).
    if len(doc["sensors"]) > 1:
        for i in range(len(doc["sensors"])):
            smaller = dict(doc)
            smaller["sensors"] = doc["sensors"][:i] + doc["sensors"][i + 1:]
            yield scenario.with_doc(smaller, f"drop-sensor{i}")

    # Drop one depot (keep at least one).
    if len(doc["depots"]) > 1:
        for i in range(len(doc["depots"])):
            smaller = dict(doc)
            smaller["depots"] = doc["depots"][:i] + doc["depots"][i + 1:]
            yield scenario.with_doc(smaller, f"drop-depot{i}")

    # Compress the cycle spread: clamp every cycle to the minimum
    # (collapses the quantisation to K = 0), then to half the spread.
    cycles = scenario.cycles
    tau1 = float(cycles.min())
    for cap, tag in ((tau1, "flat-cycles"),
                     (float(np.sqrt(tau1 * cycles.max())), "half-spread")):
        if cycles.max() > cap * (1 + 1e-12):
            smaller = dict(doc)
            smaller["sensors"] = [
                dict(s, cycle=min(float(s["cycle"]), cap))
                for s in doc["sensors"]]
            yield scenario.with_doc(smaller, tag)

    # Round every coordinate to integers (readable reproducers).
    def rounded(v: float) -> float:
        return float(round(v))

    r = dict(doc)
    r["sensors"] = [dict(s, x=rounded(s["x"]), y=rounded(s["y"]))
                    for s in doc["sensors"]]
    r["depots"] = [[rounded(x), rounded(y)] for x, y in doc["depots"]]
    r["base_station"] = [rounded(v) for v in doc["base_station"]]
    if r != doc:
        yield scenario.with_doc(r, "round-coords")

    # Shorten the horizon (keep enough room for one block of schedulings).
    if scenario.horizon > 2.2 * cycles.max():
        yield scenario.with_horizon(scenario.horizon / 2.0, "half-horizon")

    # Turn off the optional knobs.
    if scenario.refine:
        yield Scenario(name=f"{scenario.name}~no-refine",
                       network_doc=doc, horizon=scenario.horizon,
                       refine=False, base=scenario.base)
    if scenario.base != 2:
        yield Scenario(name=f"{scenario.name}~base2",
                       network_doc=doc, horizon=scenario.horizon,
                       refine=scenario.refine, base=2)


def shrink(scenario: Scenario, failing_checks: tuple[str, ...],
           checker: ScenarioChecker,
           *, max_steps: int = _MAX_SHRINK_STEPS,
           obs: Instrumentation | None = None) -> tuple[Scenario,
                                                        list[CheckFailure]]:
    """Greedily minimise a failing scenario.

    Re-runs only the checks that failed (cheaper, and it keeps the
    reproducer anchored to the original defect rather than drifting onto a
    different one). Returns the smallest scenario still failing and its
    failures.
    """
    o = ensure(obs)

    def still_fails(candidate: Scenario) -> list[CheckFailure]:
        try:
            return checker.check(candidate, checks=failing_checks)
        except CheckError:
            return []  # candidate became invalid: not a useful reduction

    current = scenario
    failures = still_fails(current)
    if not failures:
        # The failure did not replay on the unmodified scenario (flaky
        # environment, not instance): nothing to shrink.
        return current, failures

    steps = 0
    improved = True
    while improved and steps < max_steps:
        improved = False
        for candidate in _shrink_candidates(current):
            found = still_fails(candidate)
            if found:
                current, failures = candidate, found
                steps += 1
                o.incr("check.shrink.steps")
                improved = True
                break
    return current, failures


def _write_reproducer(path: Path, scenario: Scenario,
                      failures: list[CheckFailure], *, seed: int,
                      iteration: int,
                      checks: tuple[str, ...]) -> Path:
    data: dict[str, Any] = {
        "scenario": scenario.to_dict(),
        "failures": [{"check": f.check, "message": f.message}
                     for f in failures],
        "provenance": {"seed": seed, "iteration": iteration,
                       "checks": list(checks)},
    }
    return save_json(path, REPRODUCER_KIND, data)


def _checks_for(iteration: int, *, serve_every: int,
                executor_every: int) -> tuple[str, ...]:
    checks = ["oracle", "engine", "cache", "store", "exact", "bound",
              "kernels", "msf", "patch"]
    if serve_every > 0 and iteration % serve_every == 0:
        checks.append("serve")
    if executor_every > 0 and iteration % executor_every == 0:
        checks.append("executor")
    return tuple(checks)


def fuzz(seed: int, budget: int, *,
         out: str | Path | None = None,
         serve_every: int = 5,
         executor_every: int = 25,
         obs: Instrumentation | None = None,
         progress: Callable[[str], None] | None = None) -> FuzzReport:
    """Run the fuzzer; see the module docstring.

    Parameters
    ----------
    seed, budget:
        Determinism inputs: iteration ``i`` is a pure function of
        ``(seed, i)``.
    out:
        Reproducer path for a failure (default ``check_reproducer.json``).
    serve_every, executor_every:
        Cadence of the expensive checks (``0`` disables one entirely).
    obs:
        Optional instrumentation (``check.*`` counters).
    progress:
        Optional per-iteration callback (the CLI's progress line).
    """
    if budget < 1:
        raise CheckError(f"fuzz: budget must be >= 1, got {budget}")
    out_path = Path(out) if out is not None else Path("check_reproducer.json")
    o = ensure(obs)

    with ScenarioChecker(obs=obs) as checker:
        for i in range(budget):
            rng = np.random.default_rng([seed, i])
            scenario = random_scenario(rng, f"fuzz-{seed}-{i}")
            checks = _checks_for(i, serve_every=serve_every,
                                 executor_every=executor_every)
            if progress is not None:
                progress(f"[{i + 1}/{budget}] {scenario.describe()} "
                         f"(checks: {', '.join(checks)})")
            failures = checker.check(scenario, checks=checks)
            if not failures:
                continue

            o.incr("check.fuzz.failed_scenarios")
            failing_checks = tuple(dict.fromkeys(f.check for f in failures))
            log.warning("fuzz: scenario %s failed %s; shrinking ...",
                        scenario.name, failing_checks)
            shrunk, final = shrink(scenario, failing_checks, checker, obs=obs)
            if not final:  # could not replay: report the original
                shrunk, final = scenario, failures
            path = _write_reproducer(out_path, shrunk, final, seed=seed,
                                     iteration=i, checks=failing_checks)
            return FuzzReport(seed=seed, budget=budget, scenarios_run=i + 1,
                              failures=tuple(final), scenario=shrunk,
                              reproducer_path=path)

    return FuzzReport(seed=seed, budget=budget, scenarios_run=budget)


def replay(path: str | Path, *,
           obs: Instrumentation | None = None) -> list[CheckFailure]:
    """Re-run a reproducer file; returns the failures it still produces.

    Runs the checks recorded in the reproducer's provenance (falling back
    to the full suite), so a fixed bug turns the replay green without
    editing the file.
    """
    data = load_json(path, REPRODUCER_KIND)
    try:
        scenario = Scenario.from_dict(data["scenario"])
        checks = tuple(data.get("provenance", {}).get("checks") or ALL_CHECKS)
    except (KeyError, TypeError) as exc:
        raise CheckError(f"malformed reproducer file {path} ({exc})") from exc
    unknown = set(checks) - set(ALL_CHECKS)
    if unknown:
        raise CheckError(f"reproducer names unknown checks {sorted(unknown)}")
    with ScenarioChecker(obs=obs) as checker:
        return checker.check(scenario, checks=checks)
