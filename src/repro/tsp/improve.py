"""Local-search tour improvement: 2-opt.

The improver never worsens a tour (strict-improvement acceptance), so
applying it after Algorithm 2 keeps every approximation guarantee while
typically shaving 10–25 % off MST-doubling tours on uniform instances — the
``abl-refine`` bench quantifies exactly this. The depot stays fixed at
position 0 throughout; only the visiting order of the stops changes.

:func:`two_opt` is deterministic down to its tie-breaks, so refined tours
are bit-reproducible across platforms: per pass, anchors ``i`` ascend and
each applies the single best strictly improving reversal over ``j > i``
(``argmin``, lowest ``j`` on ties). It prunes candidates exactly with
neighbour lists and skips anchors with don't-look bits, so it makes the
same moves in the same order as the full-matrix scan :func:`two_opt_scan`:
tours under :data:`_LARGE_K` stops are walked one anchor at a time over
Python lists, longer ones in blocks of NumPy rows. :func:`two_opt_scan` is
the oracle the tests and ``repro check`` compare against at every size.

See ``docs/ALGORITHMS.md`` §6 for the pruning argument.
"""

from __future__ import annotations

import numpy as np

from repro.obs.instrument import Instrumentation, ensure
from repro.tsp.tour import Tour

__all__ = ["two_opt", "two_opt_scan"]

#: Minimum gain for a move to be accepted; guards against float-noise loops.
_EPS = 1e-10

#: Neighbour-list widths for the 2-opt candidate pruning (``M+1`` nearest
#: per node, self included) of the blocked scan and of the per-anchor
#: walk. Pruning is exact for any value; this only trades setup cost
#: against fallback frequency.
_M = 64
_M_WALK = 16

#: Initial / maximum anchors evaluated per blocked candidate scan.
_B0 = 48
_BCAP = 1024

#: Tours of at least this many stops run the blocked scan; shorter ones
#: the per-anchor walk, whose moves are cheaper but whose per-anchor
#: Python loop loses to NumPy blocks on long tours.
_LARGE_K = 384


def two_opt(dist: np.ndarray, tour: Tour, *, max_rounds: int = 50,
            obs: Instrumentation | None = None) -> Tour:
    """Best-improvement-per-anchor 2-opt.

    Repeatedly replaces edge pairs ``(p[i-1], p[i])``, ``(p[j], p[j+1])`` by
    ``(p[i-1], p[j])``, ``(p[i], p[j+1])`` (reversing the segment between)
    whenever that shortens the closed tour, until a full pass finds no
    improving move or ``max_rounds`` passes elapse. For each anchor ``i``
    the single best move over every ``j > i`` is applied — not the first
    improving one — and ties on the minimum delta break to the **lowest**
    ``j``. The result is identical to :func:`two_opt_scan` at every size.

    Parameters
    ----------
    dist:
        Distance matrix; either exactly the tour's nodes (``0..k-1``) or a
        larger matrix the tour's node ids index into.
    tour:
        Tour to improve; returned unchanged if it has fewer than 3 stops.
    max_rounds:
        Safety cap on improvement passes.
    obs:
        Optional instrumentation context; records a ``kernel.two_opt``
        span, the ``kernel.two_opt.calls`` counter and the
        ``two_opt.passes`` / ``two_opt.moves`` counters (the candidate
        scan itself is never instrumented).
    """
    o = ensure(obs)
    o.incr("kernel.two_opt.calls")
    k = len(tour.order)
    with o.span("kernel.two_opt", k=k):
        if k < 4:  # depot + <3 stops: no non-trivial 2-opt move exists
            return tour
        scan = _two_opt_walk if k < _LARGE_K else _two_opt_pruned
        order, passes, moves = scan(dist, tour, max_rounds)
        o.incr("two_opt.passes", passes)
        o.incr("two_opt.moves", moves)
    return tour.with_order(order)


def two_opt_scan(dist: np.ndarray, tour: Tour, *, max_rounds: int = 50,
                 obs: Instrumentation | None = None) -> Tour:
    """Full-matrix 2-opt: :func:`two_opt`'s semantics, every candidate scanned.

    For each anchor ``i`` one NumPy expression evaluates *every* candidate
    ``j`` and ``argmin`` (first minimal index) picks the move, so this is
    the definition the pruned scans must reproduce move for move. Tests
    and ``repro check`` call it as the oracle at every size.
    ``obs`` accumulates ``two_opt.passes`` / ``two_opt.moves``.
    """
    k = len(tour.order)
    if k < 4:  # depot + <3 stops: no non-trivial 2-opt move exists
        return tour
    d = np.asarray(dist)
    p = np.asarray(tour.order, dtype=np.intp)

    passes = 0
    moves = 0
    for _ in range(max_rounds):
        improved = False
        passes += 1
        # i ranges over segment starts (1..k-2), j over segment ends (i+1..k-1).
        for i in range(1, k - 1):
            a, b = p[i - 1], p[i]
            # Candidates j = i+1 .. k-1; successor of p[j] is p[(j+1) % k].
            js = np.arange(i + 1, k)
            cs = p[js]
            ds = p[np.where(js + 1 < k, js + 1, 0)]
            delta = (d[a, cs] + d[b, ds]) - (d[a, b] + d[cs, ds])
            best = int(np.argmin(delta))
            if delta[best] < -_EPS:
                j = int(js[best])
                p[i:j + 1] = p[i:j + 1][::-1]
                improved = True
                moves += 1
        if not improved:
            break
    o = ensure(obs)
    o.incr("two_opt.passes", passes)
    o.incr("two_opt.moves", moves)
    return tour.with_order(p.tolist())


def _two_opt_walk(dist: np.ndarray, tour: Tour,
                  max_rounds: int) -> tuple[list[int], int, int]:
    """Per-anchor form of :func:`_two_opt_pruned`; move-for-move exact.

    The same candidates, don't-look bits and float grouping (see
    :func:`_two_opt_pruned` for why they are exact), but each dirty anchor
    is scanned alone over Python lists, and neighbour lists are sorted
    nearest first so ``a``'s list stops at the first node not closer than
    ``d(a, b)``. A move costs a few list updates rather than a block of
    array operations, which wins on the short tours the planner mostly
    refines.
    """
    k = len(tour.order)
    d = np.asarray(dist)
    nodes = None
    if d.shape[0] != k:
        nodes = np.asarray(tour.order, dtype=np.intp)
        d = d[np.ix_(nodes, nodes)]
    p = list(tour.order) if nodes is None else list(range(k))
    m = min(_M_WALK, k - 1)
    near = np.argpartition(d, m, axis=1)[:, :m + 1]
    near = np.take_along_axis(near, np.argsort(
        np.take_along_axis(d, near, axis=1), axis=1, kind="stable"), axis=1)
    d_near = np.take_along_axis(d, near, axis=1)
    nbrs = [list(zip(r, v)) for r, v in zip(near.tolist(), d_near.tolist())]
    radius = d_near[:, -1].tolist()
    t_glob = min(radius)
    dd = d.tolist()

    pos = [0] * k
    for t, v in enumerate(p):
        pos[v] = t
    d_edge = [dd[u][v] for u, v in zip(p, p[1:] + p[:1])]
    longs = {t for t, e in enumerate(d_edge) if e > t_glob}
    # clean[i] == True → anchor i's row is known to hold no improving move.
    clean = [False] * k

    passes = 0
    moves = 0
    for _ in range(max_rounds):
        improved = False
        passes += 1
        for i in range(1, k - 1):
            if clean[i]:
                continue
            a, b = p[i - 1], p[i]
            da, db = dd[a], dd[b]
            dab = d_edge[i - 1]
            if dab > radius[a]:
                js = range(i + 1, k)  # a's list may miss a c_j: whole row
            else:
                js = []
                for c, dc in nbrs[a]:
                    if dc >= dab:
                        break
                    js.append(pos[c])
                for s, ds in nbrs[b]:
                    j = (pos[s] - 1) % k
                    if ds < d_edge[j]:
                        js.append(j)
                rb = radius[b]
                js += [j for j in longs if d_edge[j] > rb]
            best, bj = 0.0, k
            for j in js:
                if j > i:
                    x = (da[p[j]] + db[p[(j + 1) % k]]) - (dab + d_edge[j])
                    if x < best or (x == best and j < bj):
                        best, bj = x, j
            if best >= -_EPS:
                clean[i] = True
                continue
            j = bj
            p[i:j + 1] = p[i:j + 1][::-1]
            for t in range(i, j + 1):
                pos[p[t]] = t
            for t in range(i - 1, j + 1):
                e = d_edge[t] = dd[p[t]][p[(t + 1) % k]]
                if e > t_glob:
                    longs.add(t)
                else:
                    longs.discard(t)
            hi = min(j + 1, k - 2)
            clean[1:hi + 1] = [False] * hi
            improved = True
            moves += 1
        if not improved:
            break
    return (p if nodes is None else nodes[p].tolist()), passes, moves


def _two_opt_pruned(dist: np.ndarray, tour: Tour,
                    max_rounds: int) -> tuple[list[int], int, int]:
    """Neighbour-list 2-opt with don't-look bits; move-for-move exact.

    **Exact pruning.** Reversing ``p[i..j]`` replaces edges ``(a, b)``
    and ``(c_j, s_j)`` by ``(a, c_j)`` and ``(b, s_j)`` (``a = p[i-1]``,
    ``b = p[i]``, ``c_j = p[j]``, ``s_j = p[j+1]``). The delta
    ``(d(a,c_j) + d(b,s_j)) - (d(a,b) + d(c_j,s_j))`` is negative only if
    ``d(a,c_j) < d(a,b)`` *or* ``d(b,s_j) < d(c_j,s_j)`` — no triangle
    inequality needed: were both false, both parenthesised differences
    would be non-negative. So it suffices to evaluate ``j`` where

    * ``c_j`` is one of ``a``'s ``M+1`` nearest nodes closer than
      ``d(a,b)`` (complete unless ``d(a,b)`` exceeds ``a``'s list radius,
      in which case the anchor falls back to a full-row scan), or
    * ``s_j`` is one of ``b``'s ``M+1`` nearest nodes closer than the
      tour edge at ``j`` (complete unless that edge exceeds ``b``'s list
      radius — those "long edge" positions are appended as explicit
      candidates for every anchor).

    Candidate deltas use the full scan's float grouping, so when the row
    minimum is improving every full-row minimiser is improving too, hence
    in the candidate set — the lowest-``j`` minimiser over candidates *is*
    the full scan's ``argmin``. Anchors scanned clean are skipped until a
    reversal touches index ``i - 1`` or below (anchor ``i``'s row reads
    only positions ``{0} ∪ {i-1, …, k-1}`` and the depot never moves), and
    a block walk stops at its first applied move — positions above it are
    stale.
    """
    k = len(tour.order)
    d = np.asarray(dist)
    nodes = np.asarray(tour.order, dtype=np.intp)
    if d.shape[0] == k:
        # Matrix covers exactly the tour's nodes: index it directly.
        dl = d
        p = nodes.copy()
        relabelled = False
    else:
        dl = d[np.ix_(nodes, nodes)]
        p = np.arange(k, dtype=np.intp)
        relabelled = True
    m_nn = min(_M, k - 1)
    idx_nn = np.argpartition(dl, m_nn, axis=1)[:, :m_nn + 1]
    dist_nn = np.take_along_axis(dl, idx_nn, axis=1)
    nbr_max = dist_nn.max(axis=1)
    t_glob = float(nbr_max.min())

    pos = np.zeros(dl.shape[0], dtype=np.intp)
    pos[p] = np.arange(k)
    # clean[i] == True → anchor i's row is known to hold no improving move.
    clean = np.zeros(k, dtype=bool)
    clean[0] = clean[k - 1] = True  # not anchors

    def edge_vals(lo: int, hi: int) -> np.ndarray:
        # dl[p[t], p[t+1]] for t in [lo, hi], successor wrapping to p[0].
        if hi + 1 < k:
            return dl[p[lo:hi + 1], p[lo + 1:hi + 2]]
        return dl[p[lo:hi + 1], np.concatenate([p[lo + 1:], p[:1]])]

    passes = 0
    moves = 0
    for _ in range(max_rounds):
        improved = False
        passes += 1
        d_edge = edge_vals(0, k - 1)
        i = 1
        B = _B0
        while i <= k - 2:
            rel = np.nonzero(~clean[i:k - 1])[0]
            if rel.size == 0:
                break
            anchors = rel[:B] + i
            nA = anchors.size
            pa = p[anchors - 1]
            pb = p[anchors]
            dab = dl[pa, pb]
            anc_col = anchors[:, None]
            pab = np.concatenate([pa, pb])
            nn_ab = idx_nn[pab]
            dnn_ab = dist_nn[pab]
            jp = pos[nn_ab]
            # c_j in a's list, closer than d(a, b)
            ja = jp[:nA]
            v1 = (dnn_ab[:nA] < dab[:, None]) & (ja > anc_col)
            # s_j in b's list, closer than the tour edge at j
            jb = jp[nA:] - 1
            jb[jb < 0] = k - 1
            v2 = (jb > anc_col) & (dnn_ab[nA:] < d_edge[jb])
            # long-edge positions b's list cannot cover
            lpos = np.nonzero(d_edge > t_glob)[0]
            fallback = dab > nbr_max[pa]
            if lpos.size:
                j3 = np.broadcast_to(lpos, (nA, lpos.size))
                v3 = (j3 > anc_col) & (d_edge[lpos][None, :] > nbr_max[pb][:, None])
                j_all = np.concatenate([ja, jb, j3], axis=1)
                valid = np.concatenate([v1, v2, v3], axis=1)
            else:
                j_all = np.concatenate([ja, jb], axis=1)
                valid = np.concatenate([v1, v2], axis=1)
            # Compact to the valid candidates and reduce per anchor row.
            ridx, cidx = np.nonzero(valid)
            m = ridx.size
            if m:
                jf = j_all[ridx, cidx]
                jnf = jf + 1
                jnf[jnf == k] = 0
                # Full-scan grouping: (d[a,c] + d[b,s]) - (d[a,b] + d[c,s]).
                t_new = dl[pa[ridx], p[jf]] + dl[pb[ridx], p[jnf]]
                t_old = dab[ridx] + d_edge[jf]
                deltaf = t_new - t_old
                starts = np.searchsorted(ridx, np.arange(nA))
                counts = np.diff(np.append(starts, m))
                # Sentinel keeps every reduceat index valid without
                # disturbing the preceding segment's bounds.
                rowmin = np.minimum.reduceat(np.append(deltaf, np.inf), starts)
                rowmin[counts == 0] = np.inf
                hit = rowmin < -_EPS
                if hit.any():
                    jsel = np.where(deltaf == rowmin[ridx], jf, k)
                    jwin = np.minimum.reduceat(np.append(jsel, k), starts)
                else:
                    jwin = None
            else:
                hit = np.zeros(nA, dtype=bool)
                jwin = None

            next_i = int(anchors[-1]) + 1
            moved = False
            r = 0
            for r in range(nA):
                ia = int(anchors[r])
                if fallback[r]:
                    # d(a, b) exceeds a's list radius: exact full-row scan.
                    a = p[ia - 1]
                    b = p[ia]
                    cs = p[ia + 1:]
                    ds = np.concatenate([p[ia + 2:], p[:1]])
                    row = (dl[a, cs] + dl[b, ds]) - (dl[a, b] + d_edge[ia + 1:])
                    bi = int(np.argmin(row))
                    if row[bi] < -_EPS:
                        do_j = ia + 1 + bi
                    else:
                        clean[ia] = True
                        continue
                elif hit[r]:
                    do_j = int(jwin[r])
                else:
                    clean[ia] = True
                    continue
                # Apply the move, then stop the walk: the reversal dirties
                # anchors <= do_j + 1, which the pre-move rows (and the
                # pre-move dirty set) do not cover. Resume at ia + 1.
                j = do_j
                p[ia:j + 1] = p[ia:j + 1][::-1]
                pos[p[ia:j + 1]] = np.arange(ia, j + 1)
                d_edge[ia - 1:j + 1] = edge_vals(ia - 1, j)
                improved = True
                moves += 1
                moved = True
                clean[1:min(j + 1, k - 2) + 1] = False
                next_i = ia + 1
                break
            # Grow the block while scans come back clean; after a move,
            # shrink toward the observed hit distance.
            if not moved:
                B = min(B * 2, _BCAP)
            else:
                B = max(8, min(_BCAP, 2 * (r + 1)))
            i = next_i
        if not improved:
            break
    final = nodes[p] if relabelled else p
    return final.tolist(), passes, moves

