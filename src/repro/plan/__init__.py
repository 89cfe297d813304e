"""repro.plan — the staged planner pipeline and its artifact cache.

Planning is structured as five explicit stages (quantize → coverage sets →
q-rooted forest → tour construction → optional 2-opt refine; see
:mod:`repro.plan.pipeline`), and everything downstream of the coverage set
is content-addressable: :class:`~repro.plan.cache.PlanArtifactCache`
memoizes forests and tour sets by ``(geometry fingerprint, frozen coverage
set, refine flag)``, which pays off within a ``2^K`` block, across
``mtd-var`` re-plans over fixed geometry, and across algorithm variants
that share base tours (``mtd`` vs ``mtd+2opt``).

:class:`~repro.plan.store.PlanArtifactStore` adds a crash-safe on-disk
tier under that same key scheme: the pipeline falls back to it on a
memory miss and writes computed artifacts through it, so plans survive
process restarts and are shared across concurrent processes (atomic
writes, per-entry checksums, advisory locking; corrupt entries are
quarantined, never served).

``docs/ARCHITECTURE.md`` describes the stage boundaries, the cache-key
design and how the parallel experiment executor builds on them.
"""

from repro.plan.cache import PlanArtifactCache
from repro.plan.pipeline import build_levels, distinct_coverage, plan_tours
from repro.plan.store import PlanArtifactStore

__all__ = [
    "PlanArtifactCache",
    "PlanArtifactStore",
    "build_levels",
    "distinct_coverage",
    "plan_tours",
]
