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

Only the supernodes that can win are built: scheduling ``0``, the grown
ones up to ``b^k``, and of the ungrown ones ``b^0 .. b^k`` (ascending ties)
or ``b^k`` alone (descending ties). Every other ungrown scheduling's set lies
inside an earlier column's, so it never owns a sensor (``docs/ALGORITHMS.md``
§1). That is O(K + grown) columns per class, not ``b^k + 1``.

Finally, every scheduling whose node set grew (and a non-empty ``C'_0``)
gets fresh tours from Algorithms 1–2 (:func:`~repro.plan.pipeline.plan_tours`).
Distances are measured from the node coordinates, bit for bit the entries
of the network's distance matrix, which is never built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.quantize import Quantization
from repro.errors import ScheduleError
from repro.geometry.distance import edge_lengths
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
        ``sets[j]`` is the final sensor set of scheduling ``C'_j``, keyed in
        ascending ``j`` by the schedulings the repair changed only. Key
        ``0`` (the immediate scheduling) is present iff ``C'_0`` is
        dispatched; every scheduling ``1 <= j <= b^K`` not present keeps its
        coverage level's set, ``quant.level_members(quant.level_of(j))``.
    tours:
        ``tours[j]`` is the recomputed tour tuple of scheduling ``j``, for
        the keys of ``sets``; the base block's tours stay valid for every
        other scheduling.
    urgent:
        ``V^a`` — the sensors that needed patching at all.
    """

    sets: dict[int, frozenset[int]]
    tours: dict[int, tuple[Tour, ...]]
    urgent: frozenset[int]


def build_patch(network: SensorNetwork, quant: Quantization,
                lifetimes: np.ndarray, *, refine: bool = False,
                tie_break: str = "immediate",
                cache: PlanArtifactCache | None = None,
                obs: Instrumentation | None = None) -> PatchResult:
    """Run the repair step against a freshly computed plan.

    Parameters
    ----------
    network:
        The WSN instance (for coordinates and depot indices).
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
    coords = network.coordinates
    depots = np.asarray(network.depot_indices, dtype=np.intp)

    assigned = quant.assigned
    urgent_mask = l_hat < assigned * (1.0 - _REL_TOL)
    urgent = np.nonzero(urgent_mask)[0]
    o.incr("patch.urgent", int(urgent.size))
    if urgent.size == 0:
        return PatchResult(sets={}, tours={}, urgent=frozenset())

    def base_of(j: int) -> np.ndarray:
        """The sensors scheduling ``j`` charges before the repair."""
        return quant.level_members(quant.level_of(j)) if j else np.empty(0, np.intp)

    # Scheduling -> its node set, from the first sensor the repair adds on.
    grown: dict[int, set[int]] = {}

    with o.span("patch", urgent=int(urgent.size)) as sp:
        # Class partition of the urgent sensors by residual lifetime.
        immediate = urgent[l_hat[urgent] < tau1 * (1.0 - _REL_TOL)]
        if immediate.size:
            grown[0] = {int(s) for s in immediate}
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
            top = b ** k
            # Column order controls tie-breaking: the MSF's argmin prefers the
            # first column, so descending order defers charges on ties and
            # ascending order front-loads them. Ungrown schedulings that an
            # earlier column contains are left out (module docstring).
            if tie_break == "defer":
                cols = sorted({0, top, *(j for j in grown if j <= top)},
                              reverse=True)
            else:
                cols = sorted({0, *(b ** v for v in range(k + 1)),
                               *(j for j in grown if j <= top)})
            root_costs = np.empty((s_idx.size, len(cols)))
            for col, j in enumerate(cols):
                anchor = np.fromiter(grown[j], np.intp) if j in grown else base_of(j)
                root_costs[:, col] = _distances(
                    coords, s_idx, np.concatenate([anchor, depots])).min(axis=1)
            assignment = rooted_msf(_distances(coords, s_idx, s_idx), root_costs,
                                    obs=obs)
            for local, owner in enumerate(assignment.owner):
                j = cols[int(owner)]
                if j not in grown:
                    grown[j] = set(base_of(j).tolist())
                grown[j].add(int(s_idx[local]))

        # Re-tour every scheduling whose set grew: a lifetime an ulp under
        # its own assigned cycle can round into its own class, and joins a
        # scheduling that already charges it. Grown sets j >= 1 skip the
        # cache: a base set plus this replan's urgent sensors almost never
        # recurs (at fig5's ΔT = 1, ~3,000 extra lookups would yield ~130
        # hits and only drag the tour hit rate down).
        sets = {j: frozenset(grown[j]) for j in sorted(grown)
                if len(grown[j]) > base_of(j).size}
        tours = {j: plan_tours(network, s, refine=refine,
                               cache=cache if j == 0 else None, obs=obs)
                 for j, s in sets.items()}
        o.incr("patch.retoured", len(tours))
        sp.set(retoured=len(tours))

    return PatchResult(sets=sets, tours=tours,
                       urgent=frozenset(int(s) for s in urgent))


def _distances(coords: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``(rows.size, cols.size)`` distances between two node-index arrays,
    measured from ``coords``: bit for bit the ``np.ix_(rows, cols)`` slice of
    the full distance matrix (see :func:`~repro.geometry.distance.edge_lengths`)."""
    return edge_lengths(coords, np.repeat(rows, cols.size),
                        np.tile(cols, rows.size)).reshape(rows.size, cols.size)
