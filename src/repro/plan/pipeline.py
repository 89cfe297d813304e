"""The staged planner pipeline.

Algorithm 3 decomposes into five stages with clean artifact boundaries::

    quantize ──► coverage sets ──► q-rooted forest ──► tour construction ──► 2-opt refine
    (stage 1)      (stage 2)          (stage 3)            (stage 4)        (stage 5, opt.)

* **quantize** — :func:`repro.core.quantize.quantize_cycles`: cycles to
  power-of-``b`` classes. Depends on (cycles, base) only.
* **coverage sets** — :meth:`repro.core.quantize.Quantization.coverage_sets`:
  the frozen sensor set each within-block scheduling must charge. Depends
  on the quantisation only.
* **q-rooted forest** — :func:`repro.rooted.msf.q_rooted_msf` (Algorithm 1)
  over one coverage set. Depends on (geometry, coverage set) only.
* **tour construction** — :func:`repro.tsp.construct.tours_from_forest`
  (Algorithm 2's double/Euler/shortcut walk). Depends on the forest only.
* **refine** — :func:`repro.rooted.refine.refine_tours` (optional 2-opt
  post-pass). Depends on (geometry, base tours) only.

Because stages 3–5 are pure in ``(geometry fingerprint, coverage set,
refine flag)``, their artifacts memoize perfectly: :func:`plan_tours` is
the cached stage-3..5 runner every planner goes through, backed by a
:class:`~repro.plan.cache.PlanArtifactCache`. With ``cache=None`` it
degrades to exactly the uncached Algorithm 2 call — same tours, same
instrumentation — so the cache is a pure accelerator, never a semantic
switch (``tests/property/test_prop_plan_cache.py`` holds it to that).

Cache instrumentation (all under the enabled context only):

========================== =================================================
``plan.cache.tours.hit``   final tour set served from cache (no work at all)
``plan.cache.tours.miss``  final tour set had to be (partially) built
``plan.cache.base.hit``    refine requested, base tours reused (2-opt only)
``plan.cache.base.miss``   refine requested, base tours absent too
``plan.cache.forest.hit``  MSF reused, only the tree walk re-ran
``plan.cache.forest.miss`` full Algorithm 1 + 2 run
========================== =================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.quantize import Quantization
from repro.network.model import SensorNetwork
from repro.obs.instrument import Instrumentation, ensure
from repro.plan.cache import PlanArtifactCache, coverage_key
from repro.rooted.msf import q_rooted_msf
from repro.rooted.qtsp import q_rooted_tsp
from repro.rooted.refine import refine_tours
from repro.tsp.construct import tours_from_forest
from repro.tsp.tour import Tour

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plan.store import PlanArtifactStore

__all__ = ["plan_tours", "build_levels", "distinct_coverage"]


def distinct_coverage(quant: Quantization) -> tuple[frozenset[int], ...]:
    """The block's distinct coverage sets, in first-appearance order.

    A ``2^K`` block contains at most ``K + 1`` distinct sets (one per
    coverage level; see :meth:`~repro.core.quantize.Quantization.level_of`);
    this is the work list stage 3 actually has to solve. Consecutive levels
    whose class is empty share a set, hence the dedup.
    """
    seen: dict[frozenset[int], None] = {}
    for cov in quant.coverage_sets():
        seen.setdefault(cov, None)
    return tuple(seen)


def _level_key(quant: Quantization, v: int,
               cache: PlanArtifactCache | None) -> bytes | None:
    """Cache key of coverage level ``v``, from its already-sorted members
    (``None`` when there is no cache to key)."""
    return None if cache is None else coverage_key(quant.level_members(v))


def plan_tours(network: SensorNetwork, coverage: frozenset[int],
               *, refine: bool = False,
               cache: PlanArtifactCache | None = None,
               store: "PlanArtifactStore | None" = None,
               obs: Instrumentation | None = None,
               key: bytes | None = None) -> tuple[Tour, ...]:
    """Stages 3–5 for one coverage set, with artifact reuse.

    Parameters
    ----------
    network:
        The WSN instance; supplies geometry, depots and the fingerprint.
    coverage:
        The frozen to-be-charged sensor set (graph = sensor indices).
    refine:
        Apply the 2-opt post-pass (stage 5).
    cache:
        Optional :class:`~repro.plan.cache.PlanArtifactCache` (tier 1,
        in-memory). ``None`` (the default) runs Algorithm 2 directly —
        output is tour-for-tour identical either way, since the cached path
        is the same stage composition with memoized intermediates.
    store:
        Optional :class:`~repro.plan.store.PlanArtifactStore` (tier 2,
        on-disk). Consulted on a tier-1 miss — disk hits are promoted into
        ``cache`` — and written through on every compute, so artifacts
        survive process restarts. Like the cache, a pure accelerator: plans
        are tour-identical with or without it (the ``store`` differential
        check in :mod:`repro.check` holds it to that).
    obs:
        Optional instrumentation; the cached path records the
        ``plan.cache.*`` hit/miss counters documented in the module
        docstring (tier 2 adds ``plan.cache.disk.*``), and forwards to the
        stage implementations it runs.
    key:
        ``coverage``'s :func:`~repro.plan.cache.coverage_key`, when the
        caller already has it (:func:`build_levels` derives it from the
        quantisation); otherwise it is computed here, once, for all of this
        call's tier-1 lookups.

    Returns
    -------
    tuple[Tour, ...]
        One tour per depot, jointly covering ``coverage``.

    Every stage reads the geometry from ``network.coordinates``, so a plan,
    cold or warm, with or without refine, never builds the network's distance matrix.
    """
    depots = [int(i) for i in network.depot_indices]
    coords = network.coordinates
    if cache is None and store is None:
        return tuple(q_rooted_tsp(None, sorted(coverage), depots,
                                  refine=refine, coords=coords, obs=obs))

    o = ensure(obs)
    fp = network.geometry_fingerprint
    if cache is not None and key is None:
        key = coverage_key(coverage)

    def lookup_tours(want_refine: bool) -> tuple[Tour, ...] | None:
        """Tier-1 then tier-2 lookup; promotes disk hits into memory."""
        if cache is not None:
            hit = cache.get_tours(fp, key, want_refine)
            if hit is not None:
                return hit
        if store is not None:
            hit = store.get_tours(fp, coverage, want_refine, obs=obs)
            if hit is not None:
                if cache is not None:
                    cache.put_tours(fp, key, want_refine, hit)
                return hit
        return None

    def save_tours(want_refine: bool, tours: tuple[Tour, ...]) -> None:
        if cache is not None:
            cache.put_tours(fp, key, want_refine, tours)
        if store is not None:
            store.put_tours(fp, coverage, want_refine, tours, obs=obs)

    tours = lookup_tours(refine)
    if tours is not None:
        o.incr("plan.cache.tours.hit")
        return tours
    o.incr("plan.cache.tours.miss")

    base: tuple[Tour, ...] | None = None
    if refine:
        base = lookup_tours(False)
        o.incr("plan.cache.base.hit" if base is not None else "plan.cache.base.miss")
    if base is None:
        forest = cache.get_forest(fp, key) if cache is not None else None
        if forest is None and store is not None:
            forest = store.get_forest(fp, coverage, obs=obs)
            if forest is not None and cache is not None:
                cache.put_forest(fp, key, forest)
        if forest is None:
            o.incr("plan.cache.forest.miss")
            forest = q_rooted_msf(None, sorted(coverage), depots,
                                  coords=coords, obs=obs)
            if cache is not None:
                cache.put_forest(fp, key, forest)
            if store is not None:
                store.put_forest(fp, coverage, forest, obs=obs)
        else:
            o.incr("plan.cache.forest.hit")
        base = tuple(tours_from_forest(forest))
        save_tours(False, base)
        if not refine:
            return base
    refined = tuple(refine_tours(None, base, coords=coords, obs=obs))
    save_tours(True, refined)
    return refined


def build_levels(network: SensorNetwork, quant: Quantization,
                 *, refine: bool = False,
                 cache: PlanArtifactCache | None = None,
                 store: "PlanArtifactStore | None" = None,
                 obs: Instrumentation | None = None) -> tuple[tuple[Tour, ...], ...]:
    """One tour set per coverage *level* (stages 2–5) — ``K + 1`` in total.

    Scheduling ``j`` covers the prefix union of classes up to
    :meth:`~repro.core.quantize.Quantization.level_of`; element ``v`` here
    is the tour set of every scheduling at level ``v``, so the whole block —
    all ``b^K`` schedulings — is ``levels[quant.level_of(j)]`` without ever
    materialising a per-scheduling structure.

    Levels whose class is empty share the previous level's coverage set and
    therefore the same tour tuple, by reference. ``obs`` counts the solve
    structure (``plan.block.solved`` / ``plan.block.reused``) and times the
    construction under the ``plan.block`` span; the ``plan.cache.*``
    counters (cached runs only) reveal how cheap each resolution was.
    """
    o = ensure(obs)
    resolved: dict[frozenset[int], tuple[Tour, ...]] = {}
    levels: list[tuple[Tour, ...]] = []
    with o.span("plan.block", levels=quant.K + 1):
        for v, cov in enumerate(quant.coverage_sets()):
            if cov not in resolved:
                resolved[cov] = plan_tours(
                    network, cov, refine=refine, cache=cache, store=store,
                    obs=obs, key=_level_key(quant, v, cache))
                o.incr("plan.block.solved")
            else:
                o.incr("plan.block.reused")
            levels.append(resolved[cov])
    return tuple(levels)
