"""The cross-path differential oracle suite.

Every check pits two independent computations of the same answer against
each other on one :class:`~repro.check.scenario.Scenario`:

``oracle``
    Algorithm 3's plan must be feasible by construction (the paper's
    Lemma 2), the analytical :func:`~repro.core.feasibility.check_feasibility`
    verdict must agree with trajectory-level death detection in
    :mod:`repro.sim.engine`, and the run must pass the full
    :class:`~repro.check.invariants.InvariantChecker` suite.
``cache``
    Plans built cold, against a fresh :class:`~repro.plan.cache.PlanArtifactCache`,
    and against the same cache warmed, must be tour-for-tour identical —
    the cache is a pure accelerator, never a semantic switch. A warm
    re-plan must also create no new cache entries.
``store``
    Same contract for the on-disk tier: a plan re-built from a *fresh
    process state* (empty memory cache, new
    :class:`~repro.plan.store.PlanArtifactStore` handle over a populated
    directory) must be tour-identical to the cold plan and must actually
    hit disk; bit-flipped and truncated entries must be quarantined —
    never served — with the re-plan still exactly matching cold.
``exact``
    On coverage sets small enough for :func:`~repro.rooted.exact.exact_q_rooted_tsp`,
    the pipeline's tour set must cost at least the optimum and at most
    twice it (Algorithm 2's guarantee).
``bound``
    The plan's service cost must dominate the Lemma-3 lower bound and, for
    the paper's base-2 quantisation with at least one full window per
    level, stay within the ``4(K+1)`` factor the Theorem-2 argument
    certifies against that bound.
``engine``
    The event-queue simulation core must replay the scenario's plan (and
    an online greedy run) with metrics and event logs *exactly* equal to
    the preserved legacy slotted loop
    (:mod:`repro.check.legacy_engine`) — the refactor's bit-compatibility
    proof, also run standalone by ``repro check sim``.
``kernels``
    The production 2-opt (:func:`~repro.tsp.improve.two_opt`) must be
    move-for-move identical to its oracle, the full-scan
    :func:`~repro.tsp.improve.two_opt_scan`: the refined plan must equal
    the oracle applied to each tour of the unrefined plan, and the two
    must agree on the all-sensor tour, on two seeded tours of 64-96
    stops (past its 16-nearest neighbour lists) and on one of at least
    384 stops (its blocked scan).
``msf``
    :func:`~repro.rooted.msf.q_rooted_msf` from coordinates must return
    the dense full-matrix forest edge for edge, in the same discovery
    order and orientation, at every coverage level of the scenario and of
    three seeded paper topologies (uniform, clustered, grid) just above
    :data:`~repro.rooted.msf.DELAUNAY_MIN_SENSORS` sensors, whose full
    levels take the Delaunay path.
``patch``
    :func:`~repro.adaptive.patch.build_patch` over a cache warmed by the
    plan must produce *exactly* the sets and tours of the uncached repair
    (``cache=None``) under both tie-breaks — the cache is a pure
    accelerator of the repair step too, never a semantic switch.
``serve``
    A plan/simulate answered over the :mod:`repro.serve` wire must match
    the in-process computation byte-for-byte (plan document) and
    number-for-number (metrics).
``executor``
    :func:`~repro.experiments.runner.run_cell` with ``jobs=2`` must be
    bit-identical to the serial run, on a fixed-cycle, a variable-cycle
    and a failure + churn dynamics cell.

Checks *report* failures (as :class:`CheckFailure` values) rather than
raising, so the fuzzer can count, continue, and shrink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from repro.adaptive.patch import build_patch
from repro.check.invariants import InvariantChecker
from repro.check.scenario import Scenario
from repro.core.bounds import lemma3_lower_bound
from repro.core.feasibility import check_feasibility
from repro.core.mintotal import MinTotalDistanceResult, min_total_distance
from repro.core.quantize import quantize_cycles
from repro.errors import CheckError, ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_cell
from repro.geometry.distance import distance_matrix
from repro.io.network_json import network_to_dict
from repro.io.plan_json import plan_to_dict
from repro.network.builder import build_paper_network
from repro.obs.instrument import Instrumentation, ensure
from repro.plan.cache import PlanArtifactCache
from repro.plan.pipeline import distinct_coverage, plan_tours
from repro.plan.store import PlanArtifactStore
from repro.rooted.exact import exact_q_rooted_tsp
from repro.rooted.msf import DELAUNAY_MIN_SENSORS, q_rooted_msf
from repro.rooted.qtsp import q_rooted_tsp, tours_total_cost
from repro.sim.engine import SimulationResult, simulate
from repro.sim.policies import PlannedPolicy
from repro.sim.workload import FixedWorkload
from repro.tsp.improve import two_opt, two_opt_scan
from repro.tsp.tour import Tour

__all__ = ["CheckFailure", "ScenarioChecker", "ALL_CHECKS", "plans_equal"]

#: Check names in execution order. ``serve`` and ``executor`` are the
#: expensive ones — the fuzzer runs them on a cadence.
ALL_CHECKS = ("oracle", "engine", "cache", "store", "exact", "bound",
              "kernels", "msf", "patch", "serve", "executor")

#: Per-coverage-set sensor cap for the exact oracle: ``q^m`` assignments,
#: kept below the library's own cap so fuzz iterations stay sub-second.
_EXACT_SENSOR_CAP = 7

#: Relative slack for cost comparisons between independent computations.
_REL_TOL = 1e-9


@dataclass(frozen=True)
class CheckFailure:
    """One differential check that did not hold.

    Parameters
    ----------
    check:
        The check's name (an element of :data:`ALL_CHECKS`).
    message:
        What disagreed, with the values.
    """

    check: str
    message: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.message}"


def plans_equal(a: dict[str, Any], b: dict[str, Any]) -> bool:
    """Structural equality of two plan documents.

    Both sides go through :func:`~repro.io.plan_json.plan_to_dict`, which
    canonicalises shared tour sets, so plain ``==`` is an exact
    tour-for-tour, time-for-time comparison. Split out (rather than
    inlined) because the self-test uses the *same* predicate to prove a
    poisoned cache would be caught — the detector under test must be the
    detector in production.
    """
    return a == b


def _close(a: float, b: float, *, rel: float = _REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


def _tour(nodes: Iterable[int]) -> Tour:
    order = tuple(int(v) for v in nodes)
    return Tour(depot=order[0], order=order)


class ScenarioChecker:
    """Runs the differential suite against scenarios.

    One checker instance amortises the expensive fixtures — most notably a
    lazily started thread-mode :class:`~repro.serve.server.ServerThread`
    reused across every ``serve`` check — so a fuzz run pays server
    startup once, not per scenario. Call :meth:`close` (or use as a
    context manager) to tear the server down.

    Parameters
    ----------
    obs:
        Optional instrumentation: ``check.scenarios``, ``check.failures``
        and per-check ``check.<name>.fail`` counters.
    """

    def __init__(self, obs: Instrumentation | None = None) -> None:
        self._obs = ensure(obs)
        self._server = None   # lazily started ServerThread
        self._client = None   # lazily connected ServeClient

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Stop the shared serve fixture (idempotent)."""
        if self._client is not None:
            try:
                self._client.close()
            finally:
                self._client = None
        if self._server is not None:
            try:
                self._server.stop()
            finally:
                self._server = None

    def __enter__(self) -> "ScenarioChecker":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------ entry point
    def check(self, scenario: Scenario,
              checks: Iterable[str] = ALL_CHECKS) -> list[CheckFailure]:
        """Run the named checks; returns every failure (empty = clean)."""
        self._obs.incr("check.scenarios")
        failures: list[CheckFailure] = []
        for name in checks:
            runner = getattr(self, f"_check_{name}", None)
            if runner is None:
                raise CheckError(f"unknown check {name!r}; "
                                 f"available: {ALL_CHECKS}")
            try:
                found = runner(scenario)
            except CheckError as exc:
                found = [CheckFailure(check=name, message=str(exc))]
            except ReproError as exc:
                # The library rejecting a scenario outright is also a
                # harness failure: scenarios are generated to be valid.
                found = [CheckFailure(
                    check=name,
                    message=f"library error ({type(exc).__name__}): {exc}")]
            for f in found:
                self._obs.incr("check.failures")
                self._obs.incr(f"check.{f.check}.fail")
            failures.extend(found)
        return failures

    # --------------------------------------------------------------- helpers
    def _plan(self, scenario: Scenario,
              cache: PlanArtifactCache | None = None,
              store: PlanArtifactStore | None = None) -> MinTotalDistanceResult:
        return min_total_distance(
            scenario.build_network(), scenario.horizon,
            refine=scenario.refine, base=scenario.base, cache=cache,
            store=store)

    def _simulate(self, scenario: Scenario,
                  result: MinTotalDistanceResult,
                  hooks: InvariantChecker | None = None) -> SimulationResult:
        net = scenario.build_network()
        return simulate(net, PlannedPolicy(result.plan),
                        FixedWorkload.from_network(net), scenario.horizon,
                        hooks=hooks)

    # ---------------------------------------------------------------- checks
    def _check_oracle(self, scenario: Scenario) -> list[CheckFailure]:
        failures: list[CheckFailure] = []
        net = scenario.build_network()
        result = self._plan(scenario)
        report = check_feasibility(result.plan, net.cycles)
        checker = InvariantChecker(net, raise_on_violation=False,
                                   obs=self._obs)
        run = self._simulate(scenario, result, hooks=checker)
        deaths = len(run.metrics.deaths)

        if not report.feasible:
            failures.append(CheckFailure(
                "oracle", f"MinTotalDistance produced an infeasible plan "
                          f"(Lemma 2 broken): {report.summary()}"))
        if deaths > 0:
            failures.append(CheckFailure(
                "oracle", f"simulating the MinTotalDistance plan killed "
                          f"{deaths} sensor(s): "
                          f"{[(d.sensor, d.time) for d in run.metrics.deaths]}"))
        if report.feasible != (deaths == 0):
            failures.append(CheckFailure(
                "oracle", f"analytical feasibility ({bool(report)}) disagrees "
                          f"with trajectory death count ({deaths})"))
        failures.extend(
            CheckFailure("oracle", f"invariant violation: {v}")
            for v in checker.violations)

        plan_cost = result.plan.total_cost(distance_matrix(net.coordinates))
        if not _close(run.metrics.service_cost, plan_cost, rel=1e-9):
            failures.append(CheckFailure(
                "oracle", f"simulated service cost "
                          f"{run.metrics.service_cost!r} differs from the "
                          f"plan's own total {plan_cost!r}"))
        return failures

    def _check_engine(self, scenario: Scenario) -> list[CheckFailure]:
        from repro.baselines.greedy import GreedyOnDemandPolicy
        from repro.check.legacy_engine import simulate_legacy
        from repro.check.simcheck import result_diffs

        net = scenario.build_network()
        workload = FixedWorkload.from_network(net)
        result = self._plan(scenario)
        failures: list[CheckFailure] = []
        for label, policy in (("planned", PlannedPolicy(result.plan)),
                              ("greedy", GreedyOnDemandPolicy())):
            reference = simulate_legacy(net, policy, workload, scenario.horizon)
            candidate = simulate(net, policy, workload, scenario.horizon)
            failures.extend(
                CheckFailure("engine", msg)
                for msg in result_diffs(reference, candidate, label=label))
        return failures

    def _check_cache(self, scenario: Scenario) -> list[CheckFailure]:
        failures: list[CheckFailure] = []
        cold = plan_to_dict(self._plan(scenario, cache=None).plan)
        cache = PlanArtifactCache()
        first = plan_to_dict(self._plan(scenario, cache=cache).plan)
        entries_after_first = cache.keys()
        warm = plan_to_dict(self._plan(scenario, cache=cache).plan)
        entries_after_warm = cache.keys()

        if not plans_equal(cold, first):
            failures.append(CheckFailure(
                "cache", "plan built against an empty cache differs from the "
                         "uncached plan"))
        if not plans_equal(first, warm):
            failures.append(CheckFailure(
                "cache", "warm re-plan differs from the cold plan (cache "
                         "returned a wrong artifact)"))
        # Compare as sets: a warm hit legitimately reorders the LRU recency
        # list, but must never add or drop an entry.
        for kind in ("forests", "tours"):
            before = set(entries_after_first[kind])
            after = set(entries_after_warm[kind])
            if before != after:
                failures.append(CheckFailure(
                    "cache", f"warm re-plan changed the cached {kind} key set: "
                             f"added {sorted(after - before, key=repr)}, "
                             f"dropped {sorted(before - after, key=repr)}"))
        return failures

    def _check_store(self, scenario: Scenario) -> list[CheckFailure]:
        import shutil
        import tempfile

        failures: list[CheckFailure] = []
        cold = plan_to_dict(self._plan(scenario).plan)
        root = tempfile.mkdtemp(prefix="repro-check-store-")
        try:
            first = plan_to_dict(self._plan(
                scenario, cache=PlanArtifactCache(),
                store=PlanArtifactStore(root)).plan)
            if not plans_equal(cold, first):
                failures.append(CheckFailure(
                    "store", "plan built against an empty store differs from "
                             "the storeless plan"))

            # Simulated restart: a fresh process state is an empty memory
            # cache plus a new store handle over the same directory.
            warm_store = PlanArtifactStore(root)
            warm = plan_to_dict(self._plan(
                scenario, cache=PlanArtifactCache(), store=warm_store).plan)
            session = warm_store.stats()["session"]
            if not plans_equal(cold, warm):
                failures.append(CheckFailure(
                    "store", "disk-warm re-plan differs from the cold plan "
                             "(the store returned a wrong artifact)"))
            if session["hits"] == 0:
                failures.append(CheckFailure(
                    "store", "disk-warm re-plan never hit the store — the "
                             "persisted artifacts are not being read back"))

            # Fault injection: flip one bit in one entry and truncate
            # another. Each corrupted entry must be quarantined — on read
            # during the re-plan, or by verify() if never read — and the
            # re-plan must still match the cold plan exactly.
            objects = sorted((Path(root) / "objects").rglob("*.json"))
            flip, cut = objects[0], objects[-1]
            blob = bytearray(flip.read_bytes())
            blob[len(blob) // 2] ^= 0x40
            flip.write_bytes(bytes(blob))
            cut.write_bytes(cut.read_bytes()[:max(1, cut.stat().st_size // 2)])
            n_corrupted = len({flip, cut})

            hurt_store = PlanArtifactStore(root)
            hurt = plan_to_dict(self._plan(
                scenario, cache=PlanArtifactCache(), store=hurt_store).plan)
            if not plans_equal(cold, hurt):
                failures.append(CheckFailure(
                    "store", "re-plan over a corrupted store differs from "
                             "the cold plan — a corrupt entry was served"))
            quarantined = (hurt_store.stats()["session"]["corrupt"]
                           + hurt_store.verify()["corrupt"])
            if quarantined < n_corrupted:
                failures.append(CheckFailure(
                    "store", f"corrupted {n_corrupted} entries but only "
                             f"{quarantined} were quarantined across re-plan "
                             f"and verify — the integrity check is blind"))
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return failures

    def _check_exact(self, scenario: Scenario) -> list[CheckFailure]:
        failures: list[CheckFailure] = []
        net = scenario.build_network()
        quant = self._plan(scenario).quantization
        depots = [int(i) for i in net.depot_indices]
        dist = distance_matrix(net.coordinates)
        for coverage in distinct_coverage(quant):
            if not coverage or len(coverage) > _EXACT_SENSOR_CAP:
                continue
            approx = plan_tours(net, coverage, refine=scenario.refine)
            optimal = exact_q_rooted_tsp(dist, sorted(coverage), depots)
            c_approx = tours_total_cost(dist, approx)
            c_exact = tours_total_cost(dist, optimal)
            slack = _REL_TOL * max(1.0, c_exact)
            if c_approx < c_exact - slack:
                failures.append(CheckFailure(
                    "exact", f"pipeline tours over {sorted(coverage)} cost "
                             f"{c_approx!r} < exact optimum {c_exact!r} — "
                             f"the 'exact' solver is not exact or the tours "
                             f"skip required sensors"))
            if c_approx > 2.0 * c_exact + slack:
                failures.append(CheckFailure(
                    "exact", f"pipeline tours over {sorted(coverage)} cost "
                             f"{c_approx!r} > 2x the exact optimum "
                             f"{c_exact!r} (Algorithm 2's guarantee broken)"))
        return failures

    def _check_bound(self, scenario: Scenario) -> list[CheckFailure]:
        if scenario.base != 2:
            return []  # Lemma 3 is stated (and implemented) for base 2
        failures: list[CheckFailure] = []
        net = scenario.build_network()
        result = self._plan(scenario)
        plan_cost = result.plan.total_cost(distance_matrix(net.coordinates))
        lb = lemma3_lower_bound(net, scenario.horizon)
        quant = lb.quantization
        slack = _REL_TOL * max(1.0, plan_cost, lb.bound)

        if plan_cost < lb.bound - slack:
            failures.append(CheckFailure(
                "bound", f"plan cost {plan_cost!r} beats the Lemma-3 lower "
                         f"bound {lb.bound!r} — a feasible plan cheaper than "
                         f"the certified optimum is impossible"))

        # Upper factor: scheduling j covers prefix class v2(j), Algorithm 2
        # tours cost <= 2 MSF, and floor(T/(2^k tau1)) windows of level k
        # give cost <= sum_k 4 * per_level[k] <= 4(K+1) * bound. Valid only
        # when every level has a full window (no per-level zeroing), i.e.
        # horizon >= 2 * block_cycle.
        if scenario.horizon >= 2.0 * quant.block_cycle and lb.bound > 0:
            factor = 4.0 * (quant.K + 1)
            if plan_cost > factor * lb.bound + slack:
                failures.append(CheckFailure(
                    "bound", f"plan cost {plan_cost!r} exceeds "
                             f"{factor:g}x the Lemma-3 bound {lb.bound!r} "
                             f"(K={quant.K}) — the approximation argument "
                             f"no longer holds"))
        return failures

    def _check_kernels(self, scenario: Scenario) -> list[CheckFailure]:
        failures: list[CheckFailure] = []
        net = scenario.build_network()
        dist = distance_matrix(net.coordinates)

        # Whole pipeline: the refine pass is exactly the 2-opt oracle
        # applied to every tour of the unrefined plan.
        plain, refined = (min_total_distance(
            net, scenario.horizon, refine=refine, base=scenario.base).plan
            for refine in (False, True))
        expected = [tuple(two_opt_scan(dist, t) for t in tours)
                    for tours in plain.tour_sets]
        if (list(refined.tour_sets) != expected
                or not np.array_equal(refined.refs, plain.refs)):
            failures.append(CheckFailure(
                "kernels", "refined plan differs from the 2-opt oracle "
                           "applied to the unrefined plan's tours"))

        # Raw kernels on one tour through every sensor.
        depot = int(net.depot_indices[0])
        tour = Tour(depot=depot, order=(depot, *range(net.n)))
        if two_opt(dist, tour) != two_opt_scan(dist, tour):
            failures.append(CheckFailure(
                "kernels", "two_opt differs from the full-scan oracle on the "
                           "scenario's all-sensor tour"))

        # Scenario tours are short enough for 2-opt's complete neighbour
        # lists, so add tours seeded from the scenario: 64-96 stops over
        # every node of a tie-heavy integer lattice and over a subset of a
        # larger matrix, and an MST-doubled tour long enough for the
        # blocked scan.
        rng = np.random.default_rng(scenario.stable_digest())
        m = int(rng.integers(64, 97))
        cells = rng.choice(16 * 16, size=m, replace=False)
        lattice = distance_matrix(
            np.column_stack([cells // 16, cells % 16]).astype(np.float64))
        uniform = distance_matrix(rng.uniform(0.0, 100.0, size=(m + 16, 2)))
        long_n = int(rng.integers(384, 448))
        long_d = distance_matrix(rng.uniform(0.0, 100.0, size=(long_n, 2)))
        for label, d, big in (
                ("lattice", lattice, _tour(rng.permutation(m))),
                ("subset", uniform, _tour(rng.choice(m + 16, size=m, replace=False))),
                ("MST-doubled", long_d,
                 q_rooted_tsp(long_d, list(range(1, long_n)), [0])[0])):
            if two_opt(d, big) != two_opt_scan(d, big):
                failures.append(CheckFailure(
                    "kernels", f"two_opt differs from the full-scan oracle on "
                               f"a {len(big.order)}-stop {label} tour"))
        return failures

    def _check_msf(self, scenario: Scenario) -> list[CheckFailure]:
        failures: list[CheckFailure] = []
        # Scenario sets sit below the Delaunay floor (they exercise the
        # local-matrix path), so add seeded topologies whose full level
        # reaches it.
        seed = scenario.stable_digest()
        size = DELAUNAY_MIN_SENSORS + seed % 64
        networks = [("scenario", scenario.build_network(), scenario.base)]
        networks += [(deployment, build_paper_network(
            n=size, q=scenario.n_depots, seed=seed, deployment=deployment), 2)
            for deployment in ("uniform", "clustered", "grid")]
        for label, net, base in networks:
            depots = [int(i) for i in net.depot_indices]
            dist = distance_matrix(net.coordinates)
            for coverage in distinct_coverage(quantize_cycles(net.cycles, base=base)):
                sensors = sorted(coverage)
                if (q_rooted_msf(None, sensors, depots, coords=net.coordinates)
                        != q_rooted_msf(dist, sensors, depots)):
                    failures.append(CheckFailure(
                        "msf", f"{label} topology: the forest from coordinates "
                               f"over {len(sensors)} sensors differs from the "
                               f"dense full-matrix forest"))
        return failures

    def _check_patch(self, scenario: Scenario) -> list[CheckFailure]:
        failures: list[CheckFailure] = []
        net = scenario.build_network()
        quant = self._plan(scenario).quantization

        # Residual lifetimes engineered to exercise every repair path:
        # scaling tau'_i by U(0.1, 2.5) makes some sensors urgent (< tau'),
        # some immediate (< tau_1), and leaves some safe — deterministically
        # per scenario, so shrinking reproduces.
        rng = np.random.default_rng(scenario.stable_digest())
        lifetimes = quant.assigned * rng.uniform(0.1, 2.5, size=net.n)

        cache = PlanArtifactCache()
        min_total_distance(net, scenario.horizon, refine=scenario.refine,
                           base=scenario.base, cache=cache)
        for tie_break in ("immediate", "defer"):
            warm, cold = (build_patch(net, quant, lifetimes,
                                      refine=scenario.refine,
                                      tie_break=tie_break, cache=c)
                          for c in (cache, None))
            for attr in ("sets", "tours", "urgent"):
                if getattr(warm, attr) != getattr(cold, attr):
                    failures.append(CheckFailure(
                        "patch", f"warm-cache patch {attr} differ from the "
                                 f"uncached repair (tie_break={tie_break!r})"))
        return failures

    def _check_serve(self, scenario: Scenario) -> list[CheckFailure]:
        failures: list[CheckFailure] = []
        client = self._ensure_server()
        net = scenario.build_network()
        doc = network_to_dict(net)
        local = self._plan(scenario)
        local_doc = plan_to_dict(local.plan)
        local_cost = local.plan.total_cost(distance_matrix(net.coordinates))

        remote = client.plan(doc, scenario.horizon, refine=scenario.refine,
                             base=scenario.base)
        if not plans_equal(remote["plan"], local_doc):
            failures.append(CheckFailure(
                "serve", "plan document over the wire differs from the "
                         "in-process plan"))
        if not _close(float(remote["service_cost"]), local_cost):
            failures.append(CheckFailure(
                "serve", f"server reports service cost "
                         f"{remote['service_cost']!r}, local plan costs "
                         f"{local_cost!r}"))

        run = self._simulate(scenario, local)
        sim = client.simulate(doc, local_doc)
        for key, local_value in (
                ("service_cost", run.metrics.service_cost),
                ("n_deaths", len(run.metrics.deaths)),
                ("n_dispatches", len(run.metrics.dispatches))):
            remote_value = sim[key]
            same = (_close(float(remote_value), float(local_value))
                    if isinstance(local_value, float)
                    else int(remote_value) == int(local_value))
            if not same:
                failures.append(CheckFailure(
                    "serve", f"simulate over the wire reports {key}="
                             f"{remote_value!r}, in-process run says "
                             f"{local_value!r}"))
        return failures

    def _check_executor(self, scenario: Scenario) -> list[CheckFailure]:
        # The executor differential is scenario-seeded but runs the
        # library's own topology generator (run_cell is a fixed pipeline);
        # the scenario contributes the seed so each fuzz iteration
        # exercises a different stream. Three cells: fixed cycles,
        # variable cycles (the adaptive re-planner) and failure + churn
        # dynamics (replayed event sources).
        seed = scenario.stable_digest() % (2 ** 31)
        fixed = ExperimentConfig(
            n=12, q=2, side=200.0, horizon=60.0, tau_min=1.0, tau_max=8.0,
            algorithms=("mtd", "greedy"), n_topologies=2, seed=seed)
        cells = (fixed,
                 fixed.with_(variable=True, slot_duration=10.0,
                             algorithms=("mtd-var", "greedy")),
                 fixed.with_(failure_rate=0.05, failure_mttr=5.0,
                             churn_rate=0.1, churn_downtime=5.0,
                             dynamics_seed=seed))
        failures: list[CheckFailure] = []
        for config in cells:
            serial = run_cell(config, jobs=1)
            parallel = run_cell(config, jobs=2)
            spec = serial.specs[0]
            for algorithm in config.algorithms:
                for field in ("cost", "deaths", "dispatches"):
                    a = serial.column(spec, algorithm, field)
                    b = parallel.column(spec, algorithm, field)
                    if not np.array_equal(a, b):
                        failures.append(CheckFailure("executor", (
                            f"{config.describe()} {algorithm}: {field} "
                            f"differ between jobs=1 ({a.tolist()}) and "
                            f"jobs=2 ({b.tolist()}) — parallel runs must "
                            f"be bit-identical")))
        return failures

    # ----------------------------------------------------------- serve fixture
    def _ensure_server(self):
        if self._client is None:
            from repro.serve.client import ServeClient
            from repro.serve.server import ServeConfig, ServerThread

            self._server = ServerThread(ServeConfig(
                executor="thread", workers=2, queue_limit=32,
                default_deadline=120.0, drain_timeout=10.0),
                obs=self._obs)
            host, port = self._server.start()
            self._client = ServeClient(host, port, timeout=120.0)
        return self._client
