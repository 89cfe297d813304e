"""Harness self-test: plant known bugs, assert the checkers catch them.

A verification harness that silently stops detecting is worse than none —
green runs breed false confidence. This module keeps the harness honest by
injecting known mutations and requiring a failure:

* **Coverage mutation** — :meth:`~repro.core.quantize.Quantization.coverage_sets`
  (the method the planner pipeline actually builds tours from) is
  monkeypatched so the top coverage level silently omits class ``V_K``,
  the exact bug class Algorithm 3's construction exists to prevent.
  Sensors in ``V_K`` are then never charged, so the oracle check must
  flag the plan (Lemma 2 broken: infeasible plan and/or simulated deaths).
* **Cache poisoning** — two tour-set entries in a warmed
  :class:`~repro.plan.cache.PlanArtifactCache` are swapped under each
  other's keys. The cache differential must see the warm re-plan diverge
  from the cold plan (via the same :func:`~repro.check.differential.plans_equal`
  predicate the production check uses).
* **Store corruption** — a bit is flipped inside a persisted
  :class:`~repro.plan.store.PlanArtifactStore` entry. The store's
  integrity layer must quarantine it on the next read (never serve it),
  and the disk-warm re-plan must still equal the cold plan.
* **Kernel tie-break mutation** — both pruned 2-opt scans
  (``repro.tsp.improve._two_opt_walk`` and ``_two_opt_pruned``, one per
  tour length) are swapped for a full scan that breaks equal-delta ties
  toward the *highest* ``j``. Every move still improves the tour, so only
  the ``kernels`` differential's exactness comparison can see it.
* **Forest-order mutation** — the sparse Prim behind the Delaunay path of
  :func:`~repro.rooted.msf.q_rooted_msf` returns its edges in reverse
  discovery order. The forest keeps its edges and its weight, but tours
  walk it in insertion order, so only the ``msf`` differential's
  edge-for-edge comparison can see it.

The mutations are applied under ``try/finally`` so a crashing self-test
cannot leak a mutated library into the process.

``run_selftest`` returns the list of problems (empty = the harness works);
``repro check selftest`` maps that to the exit code.
"""

from __future__ import annotations

import numpy as np

from repro.check.differential import ScenarioChecker, plans_equal
from repro.check.scenario import Scenario
from repro.core.quantize import Quantization
from repro.errors import CheckError
from repro.io.network_json import network_to_dict
from repro.io.plan_json import plan_to_dict
from repro.network.builder import NetworkBuilder
from repro.obs.instrument import Instrumentation, ensure
from repro.obs.log import get_logger
from repro.plan.cache import PlanArtifactCache
from repro.rooted import msf
from repro.tsp import improve
from repro.tsp.tour import Tour

__all__ = ["run_selftest", "selftest_scenario"]

log = get_logger(__name__)


def selftest_scenario() -> Scenario:
    """A fixed two-class instance (K = 1) every self-test runs against.

    Hand-placed rather than fuzzed: the coverage mutation needs ``K >= 1``
    (there must *be* a highest class to skip) and the cache poisoning
    needs at least two distinct coverage sets to swap.
    """
    from repro.geometry.bbox import Rect
    from repro.geometry.point import Point

    net = (NetworkBuilder()
           .with_area(Rect.square(100.0))
           .with_sensors_at([Point(10.0, 10.0), Point(90.0, 10.0),
                             Point(10.0, 90.0), Point(90.0, 90.0),
                             Point(50.0, 20.0), Point(20.0, 50.0)])
           .with_base_station_at_center()
           .with_depots_at([Point(50.0, 50.0), Point(80.0, 80.0)])
           .with_cycles(np.asarray([1.0, 2.0, 1.0, 2.0, 2.0, 1.0]))
           .build())
    return Scenario(name="selftest", network_doc=network_to_dict(net),
                    horizon=9.0, refine=False, base=2)


_original_coverage_sets = Quantization.coverage_sets
_original_sparse_prim = msf._sparse_prim


def _mutated_coverage_sets(self: Quantization) -> tuple[frozenset[int], ...]:
    """The planted bug: the top coverage level silently omits class ``V_K``.

    A no-op at ``K = 0`` (no higher class to skip; the fuzz shrinker does
    produce such instances) — :func:`selftest_scenario` guarantees
    ``K >= 1`` so the self-test always exercises the bug.
    """
    sets = _original_coverage_sets(self)
    if len(sets) < 2:
        return sets
    return sets[:-1] + (sets[-2],)


def _highest_j_two_opt(dist: np.ndarray, tour: Tour,
                       max_rounds: int) -> tuple[list[int], int, int]:
    """The planted kernel bug: 2-opt that breaks delta ties to the highest ``j``."""
    k = len(tour.order)
    d = np.asarray(dist)
    p = np.asarray(tour.order, dtype=np.intp)
    passes = moves = 0
    for _ in range(max_rounds):
        improved = False
        passes += 1
        for i in range(1, k - 1):
            a, b = p[i - 1], p[i]
            js = np.arange(i + 1, k)
            cs = p[js]
            ds = p[np.where(js + 1 < k, js + 1, 0)]
            delta = (d[a, cs] + d[b, ds]) - (d[a, b] + d[cs, ds])
            best = len(delta) - 1 - int(np.argmin(delta[::-1]))
            if delta[best] < -1e-10:
                j = int(js[best])
                p[i:j + 1] = p[i:j + 1][::-1]
                improved = True
                moves += 1
        if not improved:
            break
    return p.tolist(), passes, moves


def _reversed_sparse_prim(*args):
    """:func:`repro.rooted.msf._sparse_prim` with its discovery order reversed."""
    found = _original_sparse_prim(*args)
    return None if found is None else (found[0][::-1], found[1][::-1])


def _problem_if(condition: bool, message: str,
                problems: list[str]) -> None:
    if condition:
        problems.append(message)


def run_selftest(obs: Instrumentation | None = None) -> list[str]:
    """Run all planted-mutation checks; returns problems (empty = pass)."""
    o = ensure(obs)
    problems: list[str] = []
    scenario = selftest_scenario()
    base_checks = ("oracle", "engine", "cache", "store", "exact", "bound",
                   "kernels", "msf", "patch")

    with ScenarioChecker(obs=obs) as checker:
        # ---- 0. baseline: the unmutated library must pass clean
        clean = checker.check(scenario, checks=base_checks)
        _problem_if(bool(clean),
                    f"baseline scenario fails without any mutation: "
                    f"{[str(f) for f in clean]}", problems)

        # ---- 1. coverage mutation must be caught by the oracle suite
        try:
            Quantization.coverage_sets = _mutated_coverage_sets
            caught = checker.check(scenario, checks=("oracle", "bound"))
        finally:
            Quantization.coverage_sets = _original_coverage_sets
        _problem_if(not caught,
                    "planted coverage_sets mutation (skip class V_K) was "
                    "NOT caught — the oracle check is blind", problems)
        if caught:
            log.info("selftest: coverage mutation caught by %s",
                     sorted({f.check for f in caught}))
            o.incr("check.selftest.caught")

        # ---- 2. cache poisoning must be visible to the cache differential
        problems.extend(_poisoned_cache_check(scenario))

        # ---- 3. planted on-disk corruption must be quarantined, not served
        problems.extend(_corrupted_store_check(scenario))

        # ---- 4. a 2-opt tie-break mutation must be caught by `kernels`
        originals = improve._two_opt_walk, improve._two_opt_pruned
        try:
            improve._two_opt_walk = improve._two_opt_pruned = _highest_j_two_opt
            caught = checker.check(scenario, checks=("kernels",))
        finally:
            improve._two_opt_walk, improve._two_opt_pruned = originals
        _problem_if(not caught,
                    "planted 2-opt mutation (highest-j tie-break in the "
                    "pruned scans) was NOT caught — the kernels check is blind",
                    problems)
        if caught:
            log.info("selftest: 2-opt tie-break mutation caught by kernels")

        # ---- 5. a reordered sparse-Prim forest must be caught by `msf`
        try:
            msf._sparse_prim = _reversed_sparse_prim
            caught = checker.check(scenario, checks=("msf",))
        finally:
            msf._sparse_prim = _original_sparse_prim
        _problem_if(not caught,
                    "planted sparse-Prim mutation (edges in reverse discovery "
                    "order) was NOT caught — the msf check is blind", problems)
        if caught:
            log.info("selftest: forest-order mutation caught by msf")

    if problems:
        o.incr("check.selftest.problems", len(problems))
    return problems


def _poisoned_cache_check(scenario: Scenario) -> list[str]:
    """Swap two cached tour sets; the warm plan must diverge from cold."""
    from repro.core.mintotal import min_total_distance

    net = scenario.build_network()
    cold = plan_to_dict(min_total_distance(
        net, scenario.horizon, refine=scenario.refine,
        base=scenario.base).plan)

    cache = PlanArtifactCache()
    min_total_distance(net, scenario.horizon, refine=scenario.refine,
                       base=scenario.base, cache=cache)
    tour_keys = cache.keys()["tours"]
    if len(tour_keys) < 2:
        raise CheckError("selftest scenario produced fewer than two distinct "
                         "tour-set entries; cannot poison the cache")

    # Swap the artifacts stored under the first two keys.
    (fp_a, cov_a, ref_a), (fp_b, cov_b, ref_b) = tour_keys[0], tour_keys[1]
    tours_a = cache.get_tours(fp_a, cov_a, ref_a)
    tours_b = cache.get_tours(fp_b, cov_b, ref_b)
    cache.put_tours(fp_a, cov_a, ref_a, tours_b)
    cache.put_tours(fp_b, cov_b, ref_b, tours_a)

    warm = plan_to_dict(min_total_distance(
        net, scenario.horizon, refine=scenario.refine,
        base=scenario.base, cache=cache).plan)
    if plans_equal(cold, warm):
        return ["poisoned cache produced a plan indistinguishable from the "
                "cold one — the cache differential cannot detect corrupt "
                "artifacts"]
    log.info("selftest: cache poisoning visible to the plan differential")
    return []


def _corrupted_store_check(scenario: Scenario) -> list[str]:
    """Bit-flip a persisted entry; the store must quarantine, not serve it."""
    import shutil
    import tempfile
    from pathlib import Path

    from repro.core.mintotal import min_total_distance
    from repro.plan.store import PlanArtifactStore

    net = scenario.build_network()
    cold = plan_to_dict(min_total_distance(
        net, scenario.horizon, refine=scenario.refine,
        base=scenario.base).plan)

    root = tempfile.mkdtemp(prefix="repro-selftest-store-")
    try:
        min_total_distance(net, scenario.horizon, refine=scenario.refine,
                           base=scenario.base, cache=PlanArtifactCache(),
                           store=PlanArtifactStore(root))
        entries = sorted((Path(root) / "objects").rglob("*.json"))
        if not entries:
            raise CheckError("selftest plan persisted no store entries; "
                             "cannot plant on-disk corruption")
        # Flip one bit in every persisted entry: each one read during the
        # re-plan MUST be quarantined, and none may leak into the plan.
        for path in entries:
            blob = bytearray(path.read_bytes())
            blob[len(blob) // 2] ^= 0x01
            path.write_bytes(bytes(blob))

        store = PlanArtifactStore(root)
        warm = plan_to_dict(min_total_distance(
            net, scenario.horizon, refine=scenario.refine, base=scenario.base,
            cache=PlanArtifactCache(), store=store).plan)
        problems: list[str] = []
        if not plans_equal(cold, warm):
            problems.append(
                "a corrupted store entry leaked into the re-plan — the "
                "integrity layer served bad data instead of quarantining it")
        if store.stats()["session"]["corrupt"] == 0:
            problems.append(
                "every store entry was corrupted on disk yet none was "
                "quarantined during the re-plan — the checksum check is blind")
        if not problems:
            log.info("selftest: on-disk corruption quarantined, re-plan "
                     "matches cold")
        return problems
    finally:
        shutil.rmtree(root, ignore_errors=True)
