"""Algorithm 3 — ``MinTotalDistance``: the 2(K+2)-approximation.

Given fixed maximum charging cycles, the algorithm:

1. Quantises cycles into power-of-two classes ``V_0 .. V_K``
   (:mod:`repro.core.quantize`), with base cycle ``tau_1``.
2. Builds one *block* of ``2^K`` schedulings: scheduling ``j`` (dispatched
   at ``j * tau_1``) covers ``R ∪ ⋃ {V_k : j mod 2^k = 0}``, a prefix union
   of classes, so the block needs at most ``K + 1`` distinct tour sets, one
   per coverage level, each solved with the q-rooted TSP 2-approximation
   (Algorithm 2).
3. Repeats the block across the monitoring period as a dispatch table
   (:class:`~repro.core.schedule.SchedulePlan`): dispatch ``j`` refers to
   the tour set of its level ``level_of(j)``, which is periodic in ``j``
   with period ``2^K``. No dispatch happens at time ``T`` itself (nothing
   after it needs the charge).

The cost guarantee (paper's Theorem 2) is ``2(K+2) * OPT`` with
``K = floor(log2(tau_max / tau_min))``; in practice the ratio against the
Lemma-3 lower bound is far smaller (see ``benchmarks/bench_ablation_lowerbound.py``).

The heavy lifting is delegated to the staged planner pipeline
(:mod:`repro.plan.pipeline`); passing a
:class:`~repro.plan.cache.PlanArtifactCache` memoizes the per-coverage-set
forests and tours across repeated calls over the same geometry (the
``mtd-var`` re-plan path) and across refine variants. This module keeps the
paper-facing orchestration: quantise, build the block, unroll it over the
monitoring period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.quantize import Quantization, quantize_cycles
from repro.core.schedule import SchedulePlan
from repro.errors import ScheduleError
from repro.network.model import SensorNetwork
from repro.obs.instrument import Instrumentation, ensure
from repro.plan.cache import PlanArtifactCache
from repro.plan.pipeline import build_levels
from repro.rooted.qtsp import tours_total_cost
from repro.tsp.tour import Tour

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plan.store import PlanArtifactStore

__all__ = ["MinTotalDistanceResult", "min_total_distance"]


@dataclass(frozen=True)
class MinTotalDistanceResult:
    """Everything Algorithm 3 produces.

    Parameters
    ----------
    plan:
        The full series of charging schedulings for the period, as a
        dispatch table over the distinct levels.
    quantization:
        The class structure the plan is built on (exposed for analysis and
        for the adaptive heuristic, which reuses it).
    levels:
        The ``K + 1`` distinct tour sets, indexed by coverage level:
        within-block scheduling ``j`` uses
        ``levels[quantization.level_of(j)]``. Shared by reference into
        ``plan``. This stays O(K) even for astronomically wide cycle
        spreads.
    """

    plan: SchedulePlan
    quantization: Quantization
    levels: tuple[tuple[Tour, ...], ...]


def min_total_distance(network: SensorNetwork, horizon: float,
                       *, cycles: np.ndarray | None = None,
                       refine: bool = False,
                       start_time: float = 0.0,
                       base: int = 2,
                       cache: PlanArtifactCache | None = None,
                       store: "PlanArtifactStore | None" = None,
                       obs: Instrumentation | None = None) -> MinTotalDistanceResult:
    """Run Algorithm 3.

    Parameters
    ----------
    network:
        The WSN instance (geometry + nominal cycles).
    horizon:
        Monitoring period ``T``; schedulings are dispatched at
        ``start_time + j * tau_1`` for every ``j >= 1`` with that time
        strictly before ``horizon``. All sensors are assumed fully charged
        at ``start_time``.
    cycles:
        Override for the maximum charging cycles (defaults to the network's
        nominal ones). The adaptive heuristic passes updated estimates here.
    refine:
        Forwarded to the q-rooted TSP solver (2-opt post-pass).
    start_time:
        Offset for re-planning mid-period; ``0`` for the offline case.
    base:
        Geometric base of the cycle quantisation (the paper's algorithm is
        ``base = 2``; the ``abl-base`` bench explores larger bases).
    cache:
        Optional :class:`~repro.plan.cache.PlanArtifactCache`. Memoizes the
        per-coverage-set forests and tours so repeated plans over the same
        geometry (``mtd-var`` re-plans; refine-variant pairs) skip
        Algorithms 1–2 on cache hits. The result is tour-for-tour identical
        with or without a cache.
    store:
        Optional :class:`~repro.plan.store.PlanArtifactStore` — the on-disk
        tier under ``cache``. Artifacts computed here are written through
        to it and artifacts persisted by *previous processes* are read back
        on in-memory misses, so a restarted planner replans warm. Also a
        pure accelerator: plans are tour-identical with or without it.
    obs:
        Optional instrumentation context. Records the ``plan`` span, the
        class structure (``plan.K``, ``plan.class_size`` series), the
        per-scheduling tour-set lengths (``plan.tour_length`` series) and
        the ``plan.schedulings`` counter; forwarded to the block builder
        and Algorithm 2 below it. ``None`` (the default) is a strict no-op.

    Returns
    -------
    MinTotalDistanceResult
        Plan + quantisation + the distinct block. The plan is feasible by
        construction (paper's Lemma 2): every sensor in ``V_k`` is charged
        exactly every ``2^k tau_1 <= tau_i``.
    """
    if horizon <= start_time:
        raise ScheduleError(
            f"min_total_distance: horizon {horizon} must exceed start_time {start_time}")
    tau = network.cycles if cycles is None else np.asarray(cycles, dtype=np.float64)
    if tau.shape != (network.n,):
        raise ScheduleError(
            f"min_total_distance: expected {network.n} cycles, got shape {tau.shape}")
    o = ensure(obs)
    with o.span("plan", n=network.n, horizon=float(horizon)) as sp:
        quant = quantize_cycles(tau, base=base)
        levels = build_levels(network, quant, refine=refine, cache=cache,
                              store=store, obs=obs)

        plan = _unroll(levels, quant, start_time, horizon)
        sp.set(K=quant.K, schedulings=len(plan))

    if o.enabled:
        o.incr("plan.calls")
        o.incr("plan.K", quant.K)
        o.incr("plan.schedulings", len(plan))
        for k in range(quant.K + 1):  # class coverage of the quantisation
            o.observe("plan.class_size", int(quant.members(k).size))
        # Per-scheduling tour-set length: one weighted sample per table
        # entry, the final dispatch's entry last (it is the gauge reading).
        uses = np.bincount(plan.refs, minlength=len(plan.tour_sets)).tolist()
        last = int(plan.refs[-1]) if plan.refs.size else -1
        for r in sorted((r for r, c in enumerate(uses) if c), key=lambda r: r == last):
            o.observe("plan.tour_length",
                      tours_total_cost(None, plan.tour_sets[r], coords=network.coordinates),
                      count=uses[r])
    return MinTotalDistanceResult(plan=plan, quantization=quant, levels=levels)


def _unroll(levels: tuple[tuple[Tour, ...], ...], quant: Quantization,
            start_time: float, horizon: float) -> SchedulePlan:
    """The block repeated from ``start_time`` as a dispatch table: dispatch
    ``j >= 1`` runs at ``start_time + j * tau_1`` while that is before
    ``horizon``, with the tours of level ``min(v_b(j), K)``. Levels equal by
    value share an entry; level ``v`` is first used at ``j = b^v``, so the
    table is in first-reference order."""
    bound = int((horizon - start_time) // quant.tau1) + 2
    times = start_time + np.arange(1, bound + 1) * quant.tau1
    times = times[:int(np.count_nonzero(times < horizon))]
    js = np.arange(1, times.size + 1)
    level = np.zeros(times.size, dtype=np.intp)
    step = quant.base
    for _ in range(quant.K):  # b^k | j for k = 1 .. K; b^k past the last j divides none
        if step > times.size:
            break
        level += js % step == 0
        step *= quant.base
    index_of: dict[tuple[Tour, ...], int] = {}
    slot = [index_of.setdefault(tours, len(index_of))
            for tours in levels[:int(level.max()) + 1 if level.size else 0]]
    return SchedulePlan(horizon=horizon, tour_sets=tuple(index_of),
                        times=times, refs=np.asarray(slot, dtype=np.intp)[level])
