"""The re-plan repair step (Section VI.B).

Re-running Algorithm 3 mid-period assumes every sensor is full "now" —
false after a workload change. Sensors whose residual lifetime is shorter
than their first scheduled charge would die in the gap. The paper's repair:

* ``V^a``   — sensors with ``l_i(t) < tau'_i(t)`` (die before first charge).
* ``V^a_t`` — the subset with ``l_i(t) < tau_1(t)``: charged *immediately*
  in a new scheduling ``C'_0`` dispatched at ``t``.
* The rest is partitioned by residual lifetime into classes ``V^a_k``
  (``2^k tau_1 <= l_i < 2^(k+1) tau_1``); a sensor in ``V^a_k`` may join any
  of the schedulings ``C'_0 .. C'_{2^k}`` (all dispatch within its
  lifetime) and should join wherever it is *cheapest to absorb*.
* Cheapest absorption is solved exactly per class with the rooted-MSF
  contraction (Algorithm 1) over an auxiliary graph whose roots are
  *scheduling supernodes*: the cost of attaching sensor ``u`` to scheduling
  ``j`` is the nearest distance from ``u`` to any node already in
  ``V(C'_j)`` (depots included). Classes are processed in increasing ``k``
  so later classes can attach through sensors patched earlier, exactly as
  the paper's iterative construction ``V(C^(k+1)_j)`` does.

Finally, every scheduling whose node set grew (and a non-empty ``C'_0``)
gets fresh tours from Algorithms 1–2 (:func:`~repro.plan.pipeline.plan_tours`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.quantize import Quantization
from repro.errors import ScheduleError
from repro.network.model import SensorNetwork
from repro.obs.instrument import Instrumentation, ensure
from repro.plan.cache import PlanArtifactCache
from repro.plan.pipeline import plan_tours
from repro.rooted.msf import rooted_msf
from repro.tsp.tour import Tour

__all__ = ["PatchResult", "build_patch"]

#: Lifetimes within this relative tolerance of the boundary count as "safe"
#: (mirrors the knife-edge convention used everywhere else).
_REL_TOL = 1e-9


@dataclass(frozen=True)
class PatchResult:
    """Outcome of the repair step.

    Parameters
    ----------
    sets:
        ``sets[j]`` is the final sensor set of scheduling ``C'_j`` for
        ``j = 0 .. 2^K`` (``sets[0]`` is the immediate scheduling; may be
        empty, in which case no ``C'_0`` is dispatched).
    tours:
        ``tours[j]`` is the recomputed tour tuple for scheduling ``j``, or
        ``None`` where the base block's tours remain valid (the set did not
        change). ``tours[0]`` is ``None`` iff ``sets[0]`` is empty.
    urgent:
        ``V^a`` — the sensors that needed patching at all.
    """

    sets: tuple[frozenset[int], ...]
    tours: tuple[tuple[Tour, ...] | None, ...]
    urgent: frozenset[int]

    @property
    def n_patched_schedulings(self) -> int:
        """How many schedulings had to be re-toured."""
        return sum(1 for t in self.tours if t is not None)


def build_patch(network: SensorNetwork, quant: Quantization,
                lifetimes: np.ndarray, *, refine: bool = False,
                tie_break: str = "immediate",
                cache: PlanArtifactCache | None = None,
                obs: Instrumentation | None = None) -> PatchResult:
    """Run the repair step against a freshly computed plan.

    Parameters
    ----------
    network:
        The WSN instance (for distances and depot indices).
    quant:
        Quantisation of the *new* plan (built from the updated cycle
        estimates at time ``t``); supplies ``tau_1``, ``K``, the class
        structure and the base block's sensor sets.
    lifetimes:
        ``(n,)`` estimated residual lifetimes ``l_i(t)`` *relative to now*.
    refine:
        Forward 2-opt refinement to re-toured schedulings.
    tie_break:
        When a sensor is equally cheap to absorb into several feasible
        schedulings (common: the nearest anchor is a depot, present in all
        of them), attach it to the earliest one (``"immediate"``, default —
        paper-faithful: reproduces the reported parity with Greedy at
        ``ΔT = 1`` in Fig. 5) or the latest (``"defer"`` — this library's
        improvement: avoids dispatching an immediate ``C'_0`` tour at every
        re-plan, measurably cheaper under extreme workload instability; see
        EXPERIMENTS.md and the ``abl-tiebreak`` bench).
    cache:
        Optional plan-artifact cache for the immediate scheduling ``C'_0``.
        Grown schedulings ``j >= 1`` are re-toured without it: their sets
        almost never recur, so lookups would only dilute the hit rate.
        Tours are identical either way (the ``patch`` differential in
        :mod:`repro.check` holds it to that).
    obs:
        Optional instrumentation context: ``patch`` span plus the
        ``patch.calls`` / ``patch.urgent`` / ``patch.immediate`` /
        ``patch.retoured`` counters (injections into the base plan).

    Returns
    -------
    PatchResult
    """
    if tie_break not in ("defer", "immediate"):
        raise ScheduleError(f"build_patch: unknown tie_break {tie_break!r}")
    o = ensure(obs)
    o.incr("patch.calls")
    l_hat = np.asarray(lifetimes, dtype=np.float64)
    if l_hat.shape != (network.n,):
        raise ScheduleError(
            f"build_patch: expected {network.n} lifetimes, got shape {l_hat.shape}")
    if np.any(l_hat < 0):
        raise ScheduleError("build_patch: negative residual lifetime")

    tau1 = quant.tau1
    K = quant.K
    b = quant.base
    n_sched = quant.enumerable_block_size() + 1  # schedulings 0 .. b^K (guarded: O(b^K) tables below)
    dist = network.dist
    depots = [int(i) for i in network.depot_indices]

    assigned = quant.assigned
    urgent_mask = l_hat < assigned * (1.0 - _REL_TOL)
    urgent = np.nonzero(urgent_mask)[0]
    o.incr("patch.urgent", int(urgent.size))

    # Base node sets: sets[0] empty for now, sets[j] = sensors due at j,
    # which depends on j only through its coverage level.
    level_sets = [frozenset(quant.level_members(v).tolist()) for v in range(K + 1)]
    base_sets: list[frozenset[int]] = [frozenset()]
    base_sets += [level_sets[quant.level_of(j)] for j in range(1, n_sched)]

    if urgent.size == 0:
        return PatchResult(
            sets=tuple(base_sets),
            tours=tuple(None for _ in range(n_sched)),
            urgent=frozenset(),
        )
    sets = [set(s) for s in base_sets]

    with o.span("patch", urgent=int(urgent.size)) as sp:
        # Class partition of the urgent sensors by residual lifetime.
        immediate = urgent[l_hat[urgent] < tau1 * (1.0 - _REL_TOL)]
        sets[0].update(int(s) for s in immediate)
        o.incr("patch.immediate", int(immediate.size))
        rest = np.setdiff1d(urgent, immediate, assume_unique=True)
        if rest.size:
            k_of = np.floor(np.log(l_hat[rest] / tau1 * (1.0 + _REL_TOL))
                            / np.log(float(b))).astype(np.int64)
            k_of = np.clip(k_of, 0, K)
        else:
            k_of = np.empty(0, dtype=np.int64)

        # Iterate classes in increasing k, attaching each to the cheapest of
        # the schedulings it can legally join (0 .. b^k).
        for k in range(K + 1):
            members = rest[k_of == k]
            if members.size == 0:
                continue
            s_idx = members.astype(np.intp)
            n_roots = min(b ** k, quant.block_size) + 1  # schedulings 0..b^k
            # Column order controls tie-breaking: the MSF's argmin prefers the
            # first column, so descending order defers charges on ties and
            # ascending order front-loads them.
            if tie_break == "defer":
                col_to_sched = list(range(n_roots - 1, -1, -1))
            else:
                col_to_sched = list(range(n_roots))
            root_costs = np.full((s_idx.size, n_roots), np.inf)
            for col, j in enumerate(col_to_sched):
                anchor = sorted(sets[j]) + depots
                root_costs[:, col] = dist[np.ix_(
                    s_idx, np.asarray(anchor, dtype=np.intp))].min(axis=1)
            assignment = rooted_msf(dist[np.ix_(s_idx, s_idx)], root_costs,
                                    obs=obs)
            for local, owner in enumerate(assignment.owner):
                sets[col_to_sched[int(owner)]].add(int(s_idx[local]))

        # Re-tour every scheduling whose set grew (base_sets[0] is empty, so
        # that includes a non-empty C'_0). Grown sets j >= 1 skip the cache:
        # a base set plus this replan's urgent sensors almost never recurs
        # (at fig5's ΔT = 1, ~3,000 extra lookups would yield ~130 hits and
        # only drag the tour hit rate down).
        tours = [None if sets[j] == base_sets[j]
                 else plan_tours(network, frozenset(sets[j]), refine=refine,
                                 cache=cache if j == 0 else None, obs=obs)
                 for j in range(n_sched)]
        retoured = sum(1 for t in tours if t is not None)
        o.incr("patch.retoured", retoured)
        sp.set(retoured=retoured)

    return PatchResult(
        sets=tuple(frozenset(s) for s in sets),
        tours=tuple(tours),
        urgent=frozenset(int(s) for s in urgent),
    )
