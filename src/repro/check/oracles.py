"""Loop-form reference kernels, kept only as test oracles.

The production improvers in :mod:`repro.tsp.improve` are vectorised and
pruned; the oracles here spell the same semantics out move by move, so
the property suite, ``benchmarks/bench_kernels.py`` and the ``kernels``
differential (:mod:`repro.check.differential`) can prove the fast code
changes nothing. The 2-opt oracle is :func:`repro.tsp.improve.two_opt_scan`,
which production also runs for short tours. Do not call these from the
planner.
"""

from __future__ import annotations

import numpy as np

from repro.tsp.tour import Tour

__all__ = ["or_opt_reference"]

#: Same strict-improvement guard as :mod:`repro.tsp.improve`.
_EPS = 1e-10


def or_opt_reference(dist: np.ndarray, tour: Tour, *,
                     segment_lengths: tuple[int, ...] = (1, 2, 3),
                     max_rounds: int = 20) -> Tour:
    """Or-opt with explicit ``(j, flip)`` loops: the definition of
    :func:`repro.tsp.improve.or_opt`.

    For each segment length ``s``, every run of ``s`` stops is tried at
    every other position in both orientations. Positions ``j`` ascend with
    the un-flipped orientation first and a candidate must *strictly* beat
    the incumbent, so equal gains resolve to the lowest ``j``, un-flipped.
    """
    k = len(tour.order)
    if k < 3:
        return tour
    d = np.asarray(dist)
    p = list(tour.order)

    def closed_gain(seq: list[int], i: int, s: int, j: int, flip: bool) -> float:
        """Gain (positive = better) of moving seq[i:i+s] after position j."""
        n = len(seq)
        seg = seq[i:i + s]
        pre, post = seq[i - 1], seq[(i + s) % n]
        save = d[pre, seg[0]] + d[seg[-1], post] - d[pre, post]
        a, b = seq[j], seq[(j + 1) % n]
        head, tail = (seg[-1], seg[0]) if flip else (seg[0], seg[-1])
        add = d[a, head] + d[tail, b] - d[a, b]
        return float(save - add)

    for _ in range(max_rounds):
        improved = False
        n = len(p)
        for s in segment_lengths:
            if n - s < 2:
                continue
            i = 1
            while i + s <= n:
                best_gain, best_j, best_flip = _EPS, -1, False
                for j in range(0, n):
                    # j must not touch the removed span [i-1, i+s].
                    if i - 1 <= j <= i + s - 1:
                        continue
                    for flip in (False, True):
                        g = closed_gain(p, i, s, j, flip)
                        if g > best_gain:
                            best_gain, best_j, best_flip = g, j, flip
                if best_j >= 0:
                    seg = p[i:i + s]
                    if best_flip:
                        seg = seg[::-1]
                    rest = p[:i] + p[i + s:]
                    at = rest.index(p[best_j])
                    p = rest[:at + 1] + seg + rest[at + 1:]
                    improved = True
                    n = len(p)
                i += 1
        if not improved:
            break
    if p[0] != tour.depot:
        at = p.index(tour.depot)
        p = p[at:] + p[:at]
    return tour.with_order(p)
