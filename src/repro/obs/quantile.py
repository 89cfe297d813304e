"""A mergeable quantile sketch over positive durations (no dependencies).

Fleet-wide latency percentiles cannot be computed by averaging per-shard
percentiles — quantiles do not compose. What *does* compose is a histogram:
two histograms over the same bucket boundaries merge by adding counts, and
any quantile of the union is read off the merged counts. :class:`QuantileSketch`
is a DDSketch-style log-bucketed histogram: bucket ``i`` covers values around
``gamma**i`` with ``gamma = (1 + alpha) / (1 - alpha)``, which bounds the
*relative* error of every reported quantile by ``alpha`` (default 1%) while
needing only a handful of sparse buckets per decade of dynamic range.

Sketches serialise to plain JSON (:meth:`to_dict` / :meth:`from_dict`) so
serve workers, shards and the fleet router can ship and merge them over the
NDJSON protocol; the ``watch`` stream ships bucket *deltas* the same way.

:func:`percentile` is the exact nearest-rank percentile of a sample list,
for callers that hold every sample (the load generator's latencies, a
scorecard cell's replan durations).
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping

__all__ = ["QuantileSketch", "DEFAULT_ALPHA", "percentile"]

#: Default relative accuracy: reported quantiles are within 1% of exact.
DEFAULT_ALPHA = 0.01


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in [0, 100]) of ``samples``.

    The standard load-testing convention: p99 of 100 samples is the 99th
    smallest, no interpolation. Empty input returns ``nan``.
    """
    if not samples:
        return float("nan")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile: p must be in [0, 100], got {p}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


class QuantileSketch:
    """Log-bucketed histogram with ``alpha``-relative-accurate quantiles.

    Values ``<= 0`` (a zero-duration span, clock jitter) land in a dedicated
    zero bucket rather than distorting the log scale.
    """

    __slots__ = ("alpha", "_gamma", "_log_gamma", "zeros", "buckets")

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = float(alpha)
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self._gamma)
        self.zeros = 0
        self.buckets: dict[int, int] = {}

    # --------------------------------------------------------------- recording
    def add(self, value: float, count: int = 1) -> None:
        """Record ``value`` (``count`` times)."""
        if value <= 0.0:
            self.zeros += count
            return
        i = math.ceil(math.log(value) / self._log_gamma)
        self.buckets[i] = self.buckets.get(i, 0) + count

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch in (exact: bucket counts add)."""
        if abs(other.alpha - self.alpha) > 1e-12:
            raise ValueError(
                f"cannot merge sketches with alpha {other.alpha} into {self.alpha}")
        self.zeros += other.zeros
        for i, n in other.buckets.items():
            self.buckets[i] = self.buckets.get(i, 0) + n

    # ----------------------------------------------------------------- queries
    @property
    def count(self) -> int:
        """Total recorded values."""
        return self.zeros + sum(self.buckets.values())

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (``0 <= q <= 1``); ``0.0`` when empty.

        Uses the nearest-rank convention on the merged bucket counts; the
        returned value is the geometric midpoint of the selected bucket, so
        its relative error vs. the exact order statistic is at most ``alpha``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        total = self.count
        if total == 0:
            return 0.0
        rank = q * (total - 1)
        if rank < self.zeros:
            return 0.0
        cum = float(self.zeros)
        for i in sorted(self.buckets):
            cum += self.buckets[i]
            if cum > rank:
                # Geometric midpoint of bucket i: 2*gamma^i / (gamma + 1).
                return 2.0 * self._gamma ** i / (self._gamma + 1.0)
        # Floating slack put rank past the last bucket; return its midpoint.
        top = max(self.buckets)
        return 2.0 * self._gamma ** top / (self._gamma + 1.0)

    def quantiles(self, qs: Iterable[float]) -> dict[str, float]:
        """``{"p50": ..., "p99": ...}`` for the requested fractions."""
        return {f"p{round(q * 100):d}": self.quantile(q) for q in qs}

    # ----------------------------------------------------------- serialisation
    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form (bucket keys become strings)."""
        return {"alpha": self.alpha, "zeros": self.zeros,
                "buckets": {str(i): n for i, n in self.buckets.items()}}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QuantileSketch":
        """Inverse of :meth:`to_dict`; tolerant of missing keys."""
        sketch = cls(alpha=float(data.get("alpha", DEFAULT_ALPHA)))
        sketch.zeros = int(data.get("zeros", 0))
        sketch.buckets = {int(i): int(n)
                          for i, n in dict(data.get("buckets", {})).items()}
        return sketch

    def copy(self) -> "QuantileSketch":
        out = QuantileSketch(self.alpha)
        out.zeros = self.zeros
        out.buckets = dict(self.buckets)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"QuantileSketch(alpha={self.alpha}, count={self.count}, "
                f"buckets={len(self.buckets)})")
