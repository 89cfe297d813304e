"""The content-addressed plan-artifact cache.

Algorithm 3 plans are assembled from a tiny set of expensive, *pure*
artifacts: the q-rooted MSF of one coverage set, the base tours constructed
from it, and (optionally) their 2-opt refinement. All three depend only on

* the network **geometry** (``SensorNetwork.geometry_fingerprint``),
* the **frozen coverage set** being spanned, and
* for tours, the **refine flag**.

Notably they do *not* depend on the charging cycles, the horizon, or the
plan's start time — which is why one cache serves three very different
reuse patterns:

1. **Within a block**: at most ``K + 1`` of the ``2^K`` schedulings are
   distinct (Algorithm 3's own structure).
2. **Across re-plans**: ``mtd-var`` re-runs Algorithm 3 over the *same
   fixed geometry* every time the workload shifts; coverage sets recur
   whenever cycle estimates land in the same quantisation classes.
3. **Across algorithm variants**: ``mtd`` and ``mtd+2opt`` share base
   tours — the refined variant only pays for the 2-opt pass. This happens
   where one cache or store outlives a single plan: in serve workers, and
   through the on-disk :class:`~repro.plan.store.PlanArtifactStore`. The
   run executor (:mod:`repro.experiments.runner`) gives every (instance,
   policy) run a fresh cache, so inside one of its jobs the variants share
   nothing except through that store.

The cache is a plain in-process LRU store; it is *not* shared across
processes, but it *is* shared across threads: the planning service's thread-mode
workers all plan against one instance, so every store access is guarded by
an internal :class:`threading.Lock` (``OrderedDict`` reorder-on-read plus
eviction is not atomic under concurrent callers). Lookups and their
hit/miss accounting happen in :func:`repro.plan.pipeline.plan_tours`.

Representation
--------------
A serve worker keeps thousands of entries resident, so entries are stored
as flat bytes and int arrays rather than as graphs of Python objects:

* **Keys** — the coverage set is keyed by :func:`coverage_key`: its
  members in ascending order as ``int32`` bytes (4 B per sensor plus a
  ~33 B header). The key is exact, not a digest: two sets share a key iff
  they are equal. Every method accepts either the set itself or its
  precomputed key; hot callers compute the key once per coverage set and
  per plan (:func:`~repro.plan.pipeline.build_levels` derives it from the
  quantisation's already-sorted members) and pass the bytes, so no lookup
  re-sorts a set.
* **Forests** — one ``(m, 2)`` ``int32`` array of ``(u, v)`` edges per
  tree, in discovery order (8 B per edge plus ~0.2 KB per tree), next to
  the roots tuple. :meth:`PlanArtifactCache.get_forest` rebuilds a *fresh*
  :class:`~repro.graphs.forest.RootedForest` that equals the stored one
  edge for edge and passes the same validation.
* **Tours** — kept as the very ``Tour`` tuples that were put (~36 B per
  stop), so a tour hit is zero-copy: every plan built from the entry
  shares the same objects.

One cold n=2000 plan (K+1 = 6 coverage sets) retains about 190 KB here;
``tests/integration/test_cache_footprint.py`` bounds it at 250 KB.
:meth:`~PlanArtifactCache.keys` decodes back to ``frozenset`` keys, the
shape its consumers (the on-disk store's ``flush``, the :mod:`repro.check`
harness) work with.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import chain
from typing import TYPE_CHECKING, Collection, Hashable

import numpy as np

from repro.errors import ConfigError
from repro.graphs.forest import RootedForest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tsp.tour import Tour

__all__ = ["PlanArtifactCache", "coverage_key"]

#: Default LRU capacity (per artifact kind). Generous: a 2^K block holds at
#: most K+1 distinct coverage sets, and mtd-var re-plans recycle them.
_DEFAULT_MAX_ENTRIES = 4096

#: Element type of coverage keys and stored forest edges. Graph indices of
#: any network that fits in memory are far below 2^31.
_INDEX = np.dtype(np.int32)


def coverage_key(coverage: Collection[int] | np.ndarray) -> bytes:
    """The exact cache key of a coverage set: its members, ascending, as
    ``int32`` bytes.

    Accepts any sized collection of sensor ids (a ``frozenset``, a list, an
    integer array); equal sets give equal keys whatever their container or
    order.
    """
    members = (coverage if isinstance(coverage, np.ndarray) else
               np.fromiter(coverage, dtype=np.int64, count=len(coverage)))
    return np.sort(members).astype(_INDEX).tobytes()


def _key_of(coverage: Collection[int] | bytes) -> bytes:
    return coverage if isinstance(coverage, bytes) else coverage_key(coverage)


def _coverage_of(key: bytes) -> frozenset[int]:
    return frozenset(np.frombuffer(key, dtype=_INDEX).tolist())


def _pack_forest(forest: RootedForest) -> tuple[tuple[int, ...], tuple[np.ndarray, ...]]:
    """``(roots, per-tree (m, 2) edge arrays)`` — the stored form."""
    return forest.roots, tuple(
        np.fromiter(chain.from_iterable(tree), dtype=_INDEX,
                    count=2 * len(tree)).reshape(-1, 2)
        for tree in forest.trees)


def _unpack_forest(packed: tuple[tuple[int, ...], tuple[np.ndarray, ...]]) -> RootedForest:
    roots, trees = packed
    return RootedForest(
        roots=roots,
        trees=tuple(tuple(map(tuple, edges.tolist())) for edges in trees))


class PlanArtifactCache:
    """LRU store of planning artifacts, keyed by content.

    Parameters
    ----------
    max_entries:
        Capacity of each of the two stores (forests; tours). The least
        recently used entry is evicted on overflow. ``None`` means
        unbounded.

    Notes
    -----
    Tours are immutable (:class:`~repro.tsp.tour.Tour` is a frozen
    dataclass), so handing the same tuple to many callers is safe; forests
    are stored packed and rebuilt per hit (see the module docstring). The
    ``coverage`` argument of every method is the set or its
    :func:`coverage_key`. The cache itself keeps no instrumentation — the
    pipeline layer owns the ``plan.cache.*`` counters — but tracks plain
    hit/miss tallies for :meth:`info` and ``repr``.
    """

    def __init__(self, max_entries: int | None = _DEFAULT_MAX_ENTRIES) -> None:
        if max_entries is not None and max_entries < 1:
            raise ConfigError(
                f"PlanArtifactCache: max_entries must be >= 1 or None, got {max_entries}")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._forests: OrderedDict[tuple, tuple] = OrderedDict()
        self._tours: OrderedDict[tuple, tuple["Tour", ...]] = OrderedDict()
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------ internals
    def _get(self, store: OrderedDict, key: Hashable):
        with self._lock:
            try:
                value = store[key]
            except KeyError:
                self._misses += 1
                return None
            store.move_to_end(key)
            self._hits += 1
            return value

    def _put(self, store: OrderedDict, key: Hashable, value) -> None:
        with self._lock:
            store[key] = value
            store.move_to_end(key)
            if self.max_entries is not None and len(store) > self.max_entries:
                store.popitem(last=False)

    # -------------------------------------------------------------- forests
    def get_forest(self, fingerprint: str,
                   coverage: Collection[int] | bytes) -> RootedForest | None:
        """Cached q-rooted MSF of ``coverage`` (a fresh, equal forest), or
        ``None``."""
        packed = self._get(self._forests, (fingerprint, _key_of(coverage)))
        return None if packed is None else _unpack_forest(packed)

    def put_forest(self, fingerprint: str, coverage: Collection[int] | bytes,
                   forest: RootedForest) -> None:
        self._put(self._forests, (fingerprint, _key_of(coverage)),
                  _pack_forest(forest))

    # ---------------------------------------------------------------- tours
    def get_tours(self, fingerprint: str, coverage: Collection[int] | bytes,
                  refine: bool) -> "tuple[Tour, ...] | None":
        """Cached tour set of ``coverage`` at the given refine level (the
        very tuple that was put)."""
        return self._get(self._tours,
                         (fingerprint, _key_of(coverage), bool(refine)))

    def put_tours(self, fingerprint: str, coverage: Collection[int] | bytes,
                  refine: bool, tours: "tuple[Tour, ...]") -> None:
        self._put(self._tours, (fingerprint, _key_of(coverage), bool(refine)),
                  tours)

    # ------------------------------------------------------------- lifecycle
    def clear(self) -> None:
        """Drop every artifact (tallies are kept)."""
        with self._lock:
            self._forests.clear()
            self._tours.clear()

    @property
    def n_entries(self) -> int:
        """Total stored artifacts across both stores."""
        with self._lock:
            return len(self._forests) + len(self._tours)

    def keys(self) -> dict[str, list[tuple]]:
        """Point-in-time snapshot of both stores' keys (LRU → MRU order).

        The :mod:`repro.check` differential harness uses it to plant
        poisoned entries under the exact keys the pipeline will look up and
        to assert that a warm re-plan created no new entries;
        :meth:`repro.plan.store.PlanArtifactStore.flush` uses it to find
        the entries not yet on disk before reading any artifact. Taken
        under the lock; the returned lists are copies and safe to iterate
        while the cache keeps serving.
        """
        with self._lock:
            forests, tours = list(self._forests), list(self._tours)
        return {
            "forests": [(fp, _coverage_of(key)) for fp, key in forests],
            "tours": [(fp, _coverage_of(key), refine) for fp, key, refine in tours],
        }

    def tally(self) -> tuple[int, int]:
        """``(hits, misses)`` read atomically under the lock.

        The tallies are mutated together inside :meth:`_get`; reading them
        as two separate (even individually locked) accesses can observe a
        torn pair under contention — e.g. a hit counted but its companion
        total not yet visible. Every reader that needs a *consistent* pair
        (``info``, ``repr``, the hammer tests) goes through here.
        """
        with self._lock:
            return self._hits, self._misses

    @property
    def hits(self) -> int:
        """Lifetime cache hits (locked read; see :meth:`tally`)."""
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        """Lifetime cache misses (locked read; see :meth:`tally`)."""
        with self._lock:
            return self._misses

    def info(self) -> dict[str, int]:
        """Size and traffic summary (used by tests and diagnostics).

        One lock acquisition: sizes and the hit/miss pair are mutually
        consistent (the lock is not reentrant, so this reads the private
        tallies directly rather than going through :meth:`tally`).
        """
        with self._lock:
            return {
                "forests": len(self._forests),
                "tours": len(self._tours),
                "hits": self._hits,
                "misses": self._misses,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        i = self.info()
        return (f"PlanArtifactCache(forests={i['forests']}, "
                f"tours={i['tours']}, hits={i['hits']}, "
                f"misses={i['misses']})")
