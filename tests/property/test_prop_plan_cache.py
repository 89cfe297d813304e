"""Property tests for the plan-artifact cache: caching never changes output.

The cached path of :func:`repro.plan.pipeline.plan_tours` composes the
same stages as the uncached one with memoized intermediates, so for any
geometry, coverage set and refine flag — and any interleaving of calls
warming the cache in any order — every answer must be tour-for-tour
identical to the direct Algorithm 2 run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mintotal import min_total_distance
from repro.network.builder import build_paper_network
from repro.plan import PlanArtifactCache, plan_tours


@st.composite
def cache_workloads(draw):
    """A small network plus a warm-up sequence of (coverage, refine) calls."""
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(5, 15))
    net = build_paper_network(n=n, q=draw(st.integers(1, 3)), seed=seed)
    calls = draw(st.lists(
        st.tuples(
            st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n),
            st.booleans()),
        min_size=1, max_size=6))
    return net, calls


class TestCacheTransparency:
    @given(cache_workloads())
    @settings(max_examples=25, deadline=None)
    def test_cached_equals_uncached(self, workload):
        """Every call in the sequence — whatever the cache already holds
        from earlier calls — returns exactly the uncached tours."""
        net, calls = workload
        cache = PlanArtifactCache()
        for coverage, refine in calls:
            cached = plan_tours(net, coverage, refine=refine, cache=cache)
            direct = plan_tours(net, coverage, refine=refine)
            assert cached == direct

    @given(st.integers(0, 2**16), st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_full_algorithm3_transparent(self, seed, refine):
        """End to end: Algorithm 3 with a warm, shared cache emits the same
        plan as without one."""
        net = build_paper_network(n=12, q=2, seed=seed)
        cache = PlanArtifactCache()
        min_total_distance(net, 120.0, refine=refine, cache=cache)  # warm it
        cached = min_total_distance(net, 120.0, refine=refine, cache=cache)
        direct = min_total_distance(net, 120.0, refine=refine)
        assert cached.levels == direct.levels
        assert len(cached.plan) == len(direct.plan)
        for a, b in zip(cached.plan, direct.plan):
            assert a.time == b.time
            assert a.tours == b.tours
        np.testing.assert_array_equal(cached.quantization.k_of,
                                      direct.quantization.k_of)
