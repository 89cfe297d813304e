"""Geometric quantisation of maximum charging cycles (Section V.A).

The approximation algorithm's key structural move: replace each sensor's
maximum charging cycle ``tau_i`` by the assigned cycle

    ``tau'_i = b^k * tau_1``  where  ``b^k tau_1 <= tau_i < b^(k+1) tau_1``

(``tau_1`` being the smallest cycle in the network, ``b`` the geometric
base — the paper fixes ``b = 2``). Then

* ``tau'_i <= tau_i``       — charging at the assigned cycle is always safe,
* ``tau'_i >  tau_i / b``   — at most a factor-``b`` loss (paper's
  inequality (1) for ``b = 2``),
* all assigned cycles divide each other — which is what lets one block of
  ``b^K`` schedulings, repeated, cover the entire period.

The generalisation to integer ``b > 2`` is this library's ``abl-base``
ablation: a larger base means fewer classes (smaller ``K``, so a smaller
worst-case factor ``2(K+2)``-style term) but cruder rounding (up to a
factor ``b`` of over-charging). The bench measures where the trade lands.

Float care: ``k = floor(log_b(tau_i / tau_1))`` is computed vectorised and
then *corrected* against the defining inequalities with an explicit step in
each direction, so sensors whose ratio is an exact power of ``b`` (or an
ulp below it) always land in the class that keeps ``tau'_i <= tau_i`` true —
the feasibility-critical direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import ScheduleError

__all__ = ["Quantization", "quantize_cycles"]

#: Relative tolerance for "is an exact power-of-b multiple": ratios within
#: this of the next class boundary are promoted (the paper's half-open
#: interval [b^k tau_1, b^(k+1) tau_1) with exact arithmetic).
_REL_TOL = 1e-9

#: Hard guard on the class count. float64 cycle ratios top out near 2^1024,
#: so any K beyond this is a corrupted input, not a wide-but-real spread —
#: reject it before anything downstream trusts ``K``.
_MAX_K = 512


@dataclass(frozen=True)
class Quantization:
    """Outcome of cycle quantisation.

    Parameters
    ----------
    cycles:
        The original ``(n,)`` maximum charging cycles ``tau_i``.
    tau1:
        The base cycle ``tau_1 = min_i tau_i``.
    k_of:
        ``(n,)`` integer class index of each sensor (``sensor i in V_{k_of[i]}``).
    K:
        The largest class index, ``K = max_i k_of[i]``
        (= ``floor(log_b(tau_max / tau_1))`` up to float care).
    base:
        The geometric base ``b`` (the paper's algorithm is ``b = 2``).
    """

    cycles: np.ndarray
    tau1: float
    k_of: np.ndarray
    K: int
    base: int = 2

    @property
    def n(self) -> int:
        return self.cycles.shape[0]

    @cached_property
    def assigned(self) -> np.ndarray:
        """``(n,)`` assigned cycles ``tau'_i = b^{k_of[i]} tau_1``."""
        arr = self.tau1 * np.power(float(self.base), self.k_of.astype(np.int64))
        arr.setflags(write=False)
        return arr

    @property
    def block_cycle(self) -> float:
        """``tau'_n = b^K tau_1`` — the longest assigned cycle, i.e. the
        length of one repeating scheduling block."""
        return float(self.tau1 * self.base ** self.K)

    @property
    def block_size(self) -> int:
        """``b^K`` — number of schedulings in one block."""
        return self.base ** self.K

    def members(self, k: int) -> np.ndarray:
        """Sensor ids in class ``V_k`` (possibly empty)."""
        if not (0 <= k <= self.K):
            raise ScheduleError(f"class index {k} out of range 0..{self.K}")
        return np.nonzero(self.k_of == k)[0]

    def sensors_due_at(self, j: int) -> np.ndarray:
        """Sensor ids that scheduling ``j`` (1-based within a block) must
        charge: the union of all ``V_k`` with ``j mod b^k == 0``.

        Follows the paper's construction: scheduling ``j`` runs at time
        ``j * tau_1`` and covers every class whose assigned cycle divides
        ``j * tau_1``.
        """
        if j < 1:
            raise ScheduleError(f"scheduling index must be >= 1, got {j}")
        ks = [k for k in range(self.K + 1) if j % (self.base ** k) == 0]
        if not ks:
            return np.empty(0, dtype=np.intp)
        mask = np.isin(self.k_of, ks)
        return np.nonzero(mask)[0]

    def level_of(self, j: int) -> int:
        """Coverage *level* of scheduling ``j``: the largest ``v <= K`` with
        ``b^v | j``.

        ``b^k | j`` implies ``b^m | j`` for every ``m <= k``, so the classes
        scheduling ``j`` covers are always the prefix ``V_0 .. V_{level}`` —
        which is why one block has at most ``K + 1`` distinct coverage sets.
        Periodic in ``j`` with period ``b^K``, so global scheduling indices
        can be passed directly.
        """
        if j < 1:
            raise ScheduleError(f"scheduling index must be >= 1, got {j}")
        level = 0
        while level < self.K and j % (self.base ** (level + 1)) == 0:
            level += 1
        return level

    def level_members(self, v: int) -> np.ndarray:
        """Sensor ids of coverage level ``v`` — the prefix union
        ``V_0 ∪ ... ∪ V_v`` — in ascending order (the sorted form of
        ``coverage_sets()[v]``)."""
        if not (0 <= v <= self.K):
            raise ScheduleError(f"coverage level {v} out of range 0..{self.K}")
        return np.flatnonzero(self.k_of <= v)

    def coverage_sets(self) -> tuple[frozenset[int], ...]:
        """Stage-2 artifact of the planner pipeline: the ``K + 1`` distinct
        coverage sets, indexed by level.

        Element ``v`` is the prefix union ``U_v = V_0 ∪ ... ∪ V_v`` — the
        sensor set of every scheduling at level ``v`` (see :meth:`level_of`)
        as an immutable ``frozenset``, exactly the content-addressable key
        the plan-artifact cache uses (see :mod:`repro.plan`). Consecutive
        elements may be *equal* when a class is empty; consumers that need
        strictly distinct sets dedup (``repro.plan.pipeline.distinct_coverage``).

        This used to materialise one set per scheduling — ``b^K`` of them —
        which attempted a ``2^40``-element tuple on a wide cycle spread.
        The set of scheduling ``j`` is ``coverage_sets()[level_of(j)]``.
        """
        sets: list[frozenset[int]] = []
        acc: set[int] = set()
        for k in range(self.K + 1):
            acc.update(int(s) for s in self.members(k))
            sets.append(frozenset(acc))
        return tuple(sets)

    def validate(self) -> None:
        """Assert the two defining inequalities ``tau_i/b < tau'_i <= tau_i``
        hold for every sensor (used by tests and the property suite)."""
        a = self.assigned
        if np.any(a > self.cycles * (1 + _REL_TOL)):
            bad = int(np.argmax(a > self.cycles * (1 + _REL_TOL)))
            raise ScheduleError(
                f"quantization unsafe: sensor {bad} assigned {a[bad]} > tau {self.cycles[bad]}")
        if np.any(a * self.base <= self.cycles * (1 - _REL_TOL)):
            bad = int(np.argmax(a * self.base <= self.cycles * (1 - _REL_TOL)))
            raise ScheduleError(
                f"quantization loose: sensor {bad} assigned {a[bad]} <= tau/b "
                f"= {self.cycles[bad] / self.base}")


def quantize_cycles(cycles: np.ndarray, *, base: int = 2) -> Quantization:
    """Quantise maximum charging cycles into geometric classes.

    Parameters
    ----------
    cycles:
        ``(n,)`` positive maximum charging cycles.
    base:
        Integer geometric base ``b >= 2``. The paper's algorithm (and the
        default) is ``b = 2``; larger bases trade rounding quality for
        fewer classes (see the ``abl-base`` bench).

    Returns
    -------
    Quantization
        The class structure; ``result.validate()`` is guaranteed to pass.
    """
    if not isinstance(base, (int, np.integer)) or base < 2:
        raise ScheduleError(f"quantize_cycles: base must be an integer >= 2, got {base!r}")
    tau = np.asarray(cycles, dtype=np.float64)
    if tau.ndim != 1 or tau.size == 0:
        raise ScheduleError(f"quantize_cycles: need a non-empty 1-D array, got shape {tau.shape}")
    if np.any(tau <= 0) or not np.all(np.isfinite(tau)):
        raise ScheduleError("quantize_cycles: cycles must be positive and finite")

    b = float(base)
    tau1 = float(tau.min())
    ratio = tau / tau1
    k = np.floor(np.log(ratio) / np.log(b)).astype(np.int64)
    # Correct float drift against the defining half-open interval.
    # Promote: ratio is within tolerance of (or beyond) the next boundary.
    too_low = np.power(b, k + 1) <= ratio * (1 + _REL_TOL)
    k[too_low] += 1
    # Demote: assigned cycle exceeds the true cycle (feasibility-critical).
    too_high = np.power(b, k) > ratio * (1 + _REL_TOL)
    k[too_high] -= 1
    if np.any(k < 0):
        raise ScheduleError("quantize_cycles: internal error — negative class index")
    if int(k.max()) > _MAX_K:
        raise ScheduleError(
            f"quantize_cycles: cycle spread gives K = {int(k.max())} classes "
            f"(> {_MAX_K}); a ratio tau_max/tau_1 beyond b^{_MAX_K} is not a "
            f"schedulable instance")

    q = Quantization(cycles=tau, tau1=tau1, k_of=k, K=int(k.max()), base=int(base))
    q.validate()
    return q
