"""Unit tests for the staged planner pipeline and its artifact cache.

Covers :mod:`repro.plan.cache` (LRU mechanics, the packed entry
representation and its round trips) and
:mod:`repro.plan.pipeline` (per-stage hit/miss accounting, base-tour
sharing across refine variants, invalidation when cycle changes move
sensors between quantisation classes). The cached-equals-uncached
guarantee is additionally property-tested in
``tests/property/test_prop_plan_cache.py``.
"""

import numpy as np
import pytest

from repro.core.mintotal import min_total_distance
from repro.core.quantize import quantize_cycles
from repro.errors import ConfigError, GraphError
from repro.graphs.forest import RootedForest
from repro.network.builder import build_paper_network
from repro.obs import Instrumentation
from repro.plan import PlanArtifactCache, build_levels, distinct_coverage, plan_tours
from repro.plan.cache import coverage_key
from repro.rooted.msf import q_rooted_msf


@pytest.fixture(scope="module")
def net():
    return build_paper_network(n=20, q=3, seed=7)


class TestCacheStore:
    def test_empty(self):
        c = PlanArtifactCache()
        assert c.n_entries == 0
        assert c.get_tours("fp", frozenset({1}), False) is None
        assert c.info() == {"forests": 0, "tours": 0, "hits": 0, "misses": 1}

    def test_put_get_round_trip(self, net):
        c = PlanArtifactCache()
        cov = frozenset({0, 1, 2})
        tours = plan_tours(net, cov)
        c.put_tours("fp", cov, False, tours)
        assert c.get_tours("fp", cov, False) is tours
        assert c.get_tours("fp", cov, True) is None      # refine flag is keyed
        assert c.get_tours("other", cov, False) is None  # fingerprint is keyed

    def test_bad_capacity_raises(self):
        with pytest.raises(ConfigError):
            PlanArtifactCache(max_entries=0)

    def test_lru_eviction(self):
        c = PlanArtifactCache(max_entries=2)
        for i in range(3):
            c.put_tours("fp", frozenset({i}), False, ())
        assert c.get_tours("fp", frozenset({0}), False) is None  # evicted
        assert c.get_tours("fp", frozenset({2}), False) == ()

    def test_lru_touch_on_get(self):
        c = PlanArtifactCache(max_entries=2)
        c.put_tours("fp", frozenset({0}), False, ())
        c.put_tours("fp", frozenset({1}), False, ())
        c.get_tours("fp", frozenset({0}), False)         # 0 becomes most recent
        c.put_tours("fp", frozenset({2}), False, ())     # evicts 1, not 0
        assert c.get_tours("fp", frozenset({0}), False) == ()
        assert c.get_tours("fp", frozenset({1}), False) is None

    def test_clear_keeps_tallies(self, net):
        c = PlanArtifactCache()
        cov = frozenset({0, 1})
        plan_tours(net, cov, cache=c)
        plan_tours(net, cov, cache=c)
        hits_before = c.hits
        c.clear()
        assert c.n_entries == 0
        assert c.hits == hits_before > 0


class TestPackedEntries:
    """Entries are stored as key bytes and edge arrays; every accessor
    still hands back the historical shapes."""

    def test_coverage_key_is_exact(self):
        key = coverage_key(frozenset({5, 1, 300, 70000}))
        assert key == coverage_key([70000, 300, 5, 1])
        assert key == coverage_key(np.array([1, 5, 300, 70000]))
        assert np.frombuffer(key, dtype=np.int32).tolist() == [1, 5, 300, 70000]
        assert coverage_key(frozenset({1, 2})) != coverage_key(frozenset({1, 3}))
        assert coverage_key(frozenset()) == b""

    def test_set_and_key_address_the_same_entry(self, net):
        c = PlanArtifactCache()
        cov = frozenset({3, 1, 2})
        tours = plan_tours(net, cov)
        c.put_tours("fp", coverage_key(cov), False, tours)
        assert c.get_tours("fp", cov, False) is tours
        assert c.get_tours("fp", [1, 2, 3], False) is tours

    @pytest.mark.parametrize("q", [1, 3])
    def test_get_forest_equals_put_forest(self, q):
        net = build_paper_network(n=30, q=q, seed=5)
        depots = [int(i) for i in net.depot_indices]
        c = PlanArtifactCache()
        for cov in (frozenset(range(30)), frozenset({0, 7}), frozenset()):
            forest = q_rooted_msf(None, sorted(cov), depots,
                                  coords=net.coordinates)
            c.put_forest("fp", cov, forest)
            back = c.get_forest("fp", cov)
            assert back == forest and back is not forest
            assert back.roots == forest.roots
            for got, want in zip(back.trees, forest.trees):
                assert got == want  # edge for edge, discovery order kept
                assert all(type(u) is int and type(v) is int for u, v in got)
            if not cov:
                assert all(tree == () for tree in back.trees)

    def test_get_forest_keeps_empty_trees_and_validation(self):
        forest = RootedForest(roots=(10, 11, 12),
                              trees=(((10, 0), (0, 1)), (), ((12, 2),)))
        c = PlanArtifactCache()
        c.put_forest("fp", frozenset({0, 1, 2}), forest)
        back = c.get_forest("fp", frozenset({0, 1, 2}))
        assert back == forest and back.trees[1] == ()
        # The rebuild runs RootedForest's validation: a corrupted stored
        # edge array that makes two trees share a node is refused.
        (packed,) = c._forests.values()
        packed[1][2][0, 1] = 1
        with pytest.raises(GraphError):
            c.get_forest("fp", frozenset({0, 1, 2}))

    def test_keys_decode_to_frozensets(self, net):
        c = PlanArtifactCache()
        cov = frozenset(range(12))
        tours = plan_tours(net, cov, cache=c)
        keys = c.keys()
        assert keys == {"forests": [(net.geometry_fingerprint, cov)],
                        "tours": [(net.geometry_fingerprint, cov, False)]}
        assert all(type(k[1]) is frozenset for kind in keys.values() for k in kind)
        # Each decoded key addresses its entry.
        (fkey,) = keys["forests"]
        forest = c.get_forest(*fkey)
        assert isinstance(forest, RootedForest)
        assert forest == q_rooted_msf(
            None, sorted(cov), [int(i) for i in net.depot_indices],
            coords=net.coordinates)
        (tkey,) = keys["tours"]
        assert c.get_tours(*tkey) is tours


class TestPlanToursCounters:
    def test_cold_then_warm(self, net):
        c, obs = PlanArtifactCache(), Instrumentation()
        cov = frozenset({0, 1, 2, 3})
        first = plan_tours(net, cov, cache=c, obs=obs)
        assert obs.counters["plan.cache.tours.miss"] == 1
        assert obs.counters["plan.cache.forest.miss"] == 1
        second = plan_tours(net, cov, cache=c, obs=obs)
        assert second is first                       # served by reference
        assert obs.counters["plan.cache.tours.hit"] == 1

    def test_refine_reuses_base_tours(self, net):
        """mtd+2opt after mtd pays only for the 2-opt pass (base hit)."""
        c, obs = PlanArtifactCache(), Instrumentation()
        cov = frozenset(range(8))
        plan_tours(net, cov, refine=False, cache=c, obs=obs)
        plan_tours(net, cov, refine=True, cache=c, obs=obs)
        assert obs.counters["plan.cache.base.hit"] == 1
        assert obs.counters["plan.cache.forest.miss"] == 1  # only the first call
        assert "plan.cache.forest.hit" not in obs.counters

    def test_refine_cold_counts_base_miss(self, net):
        c, obs = PlanArtifactCache(), Instrumentation()
        plan_tours(net, frozenset({1, 2}), refine=True, cache=c, obs=obs)
        assert obs.counters["plan.cache.base.miss"] == 1
        assert obs.counters["plan.cache.forest.miss"] == 1
        # The base tours were stored as a by-product and now hit directly.
        obs2 = Instrumentation()
        plan_tours(net, frozenset({1, 2}), refine=False, cache=c, obs=obs2)
        assert obs2.counters["plan.cache.tours.hit"] == 1

    def test_forest_hit_after_eviction_of_tours(self, net):
        """A surviving forest still saves Algorithm 1 when tours are gone."""
        c = PlanArtifactCache()
        cov = frozenset({0, 1, 2})
        plan_tours(net, cov, cache=c)
        c._tours.clear()  # simulate tour eviction with the forest retained
        obs = Instrumentation()
        plan_tours(net, cov, cache=c, obs=obs)
        assert obs.counters["plan.cache.forest.hit"] == 1

    def test_cached_equals_uncached(self, net):
        cov = frozenset(range(10))
        for refine in (False, True):
            uncached = plan_tours(net, cov, refine=refine)
            cached = plan_tours(net, cov, refine=refine,
                                cache=PlanArtifactCache())
            assert cached == uncached


class TestBlockAndInvalidation:
    def test_distinct_coverage_bound(self, net):
        quant = quantize_cycles(net.cycles)
        distinct = distinct_coverage(quant)
        assert 1 <= len(distinct) <= quant.K + 1
        assert set(distinct) == set(quant.coverage_sets())

    def test_block_solves_each_coverage_once(self, net):
        quant = quantize_cycles(net.cycles)
        obs = Instrumentation()
        levels = build_levels(net, quant, cache=PlanArtifactCache(), obs=obs)
        assert len(levels) == quant.K + 1
        assert obs.counters["plan.block.solved"] == len(distinct_coverage(quant))
        assert obs.counters.get("plan.block.reused", 0) == \
            quant.K + 1 - len(distinct_coverage(quant))
        # Within one block the dedup map resolves repeats before the cache
        # is ever consulted, so every cache lookup was a (tours) miss.
        assert obs.counters["plan.cache.tours.miss"] == \
            obs.counters["plan.block.solved"]

    def test_replan_same_cycles_all_hits(self, net):
        """The mtd-var reuse pattern: a re-plan over unchanged classes is
        answered from the cache for every coverage set."""
        cache, obs = PlanArtifactCache(), Instrumentation()
        quant = quantize_cycles(net.cycles)
        first = build_levels(net, quant, cache=cache, obs=obs)
        obs2 = Instrumentation()
        second = build_levels(net, quant, cache=cache, obs=obs2)
        assert second == first
        assert obs2.counters["plan.cache.tours.hit"] == \
            obs2.counters["plan.block.solved"]
        assert "plan.cache.tours.miss" not in obs2.counters

    def test_bucket_change_invalidates(self, net):
        """Moving one sensor to another quantisation class changes the
        affected coverage sets, so those schedulings re-plan (cache misses)
        while untouched sets still hit."""
        cache = PlanArtifactCache()
        quant = quantize_cycles(net.cycles)
        build_levels(net, quant, cache=cache)

        # Pull one top-class sensor down a class. (Never the base-cycle
        # minimum, so tau_1 and everyone else's class stay put.)
        idx = int(np.argmax(quant.k_of))
        k = int(quant.k_of[idx])
        assert k > 0  # the paper's [1, 50] cycles span multiple classes
        moved = net.cycles.copy()
        moved[idx] = quant.tau1 * quant.base ** (k - 1)
        quant2 = quantize_cycles(moved)
        assert int(quant2.k_of[idx]) == k - 1

        obs = Instrumentation()
        build_levels(net, quant2, cache=cache, obs=obs)
        changed = set(quant2.coverage_sets()) - set(quant.coverage_sets())
        assert changed  # the move really altered some coverage sets
        assert obs.counters["plan.cache.tours.miss"] == len(changed)
        unchanged = set(quant2.coverage_sets()) & set(quant.coverage_sets())
        if unchanged:
            assert obs.counters["plan.cache.tours.hit"] == len(unchanged)

    def test_geometry_change_misses(self):
        """Same cycles on different coordinates must never share tours."""
        a = build_paper_network(n=15, q=2, seed=1)
        b = build_paper_network(n=15, q=2, seed=2)
        assert a.geometry_fingerprint != b.geometry_fingerprint
        cache = PlanArtifactCache()
        cov = frozenset(range(5))
        plan_tours(a, cov, cache=cache)
        obs = Instrumentation()
        plan_tours(b, cov, cache=cache, obs=obs)
        assert obs.counters["plan.cache.tours.miss"] == 1


class TestMinTotalDistanceWithCache:
    def test_identical_plans_and_speedy_replan(self, net):
        cache = PlanArtifactCache()
        obs = Instrumentation()
        base = min_total_distance(net, 200.0)
        warm1 = min_total_distance(net, 200.0, cache=cache, obs=obs)
        assert warm1.levels == base.levels
        assert [s.time for s in warm1.plan] == [s.time for s in base.plan]
        # Second plan over the same geometry + cycles: zero solves.
        obs2 = Instrumentation()
        warm2 = min_total_distance(net, 150.0, cache=cache, obs=obs2)
        assert warm2.levels == base.levels
        assert "plan.cache.tours.miss" not in obs2.counters

    def test_refine_variant_shares_base(self, net):
        cache, obs = PlanArtifactCache(), Instrumentation()
        plain = min_total_distance(net, 200.0, cache=cache, obs=obs)
        refined = min_total_distance(net, 200.0, refine=True,
                                     cache=cache, obs=obs)
        assert obs.counters["plan.cache.base.hit"] >= 1
        assert "plan.cache.forest.hit" not in obs.counters  # never re-walked
        d = net.dist
        for bt, rt in zip(plain.levels, refined.levels, strict=True):
            assert sum(t.cost(d) for t in rt) <= sum(t.cost(d) for t in bt) + 1e-9


class TestCacheThreadSafety:
    """Regression: the store used to mutate its OrderedDicts unlocked.

    Unsynchronised ``move_to_end`` / ``popitem`` racing against lookups can
    raise ``KeyError``/``RuntimeError`` or corrupt the LRU order once the
    cache is shared — which the planning service's thread-mode workers do.
    Hammer one instance from many threads through every public entry point
    and require zero exceptions plus intact bounds.
    """

    def test_concurrent_hammer(self):
        import random
        import threading

        cache = PlanArtifactCache(max_entries=32)  # tiny: evict constantly
        n_threads, n_ops = 8, 3000
        start = threading.Barrier(n_threads)
        failures: list[BaseException] = []

        def hammer(seed: int) -> None:
            rng = random.Random(seed)
            try:
                start.wait(timeout=10)
                for i in range(n_ops):
                    cov = frozenset({rng.randrange(64)})
                    refine = rng.random() < 0.5
                    op = rng.random()
                    if op < 0.45:
                        cache.put_tours("fp", cov, refine, (seed, i))
                    elif op < 0.9:
                        cache.get_tours("fp", cov, refine)
                    elif op < 0.96:
                        assert cache.n_entries >= 0
                        cache.info()
                    else:
                        cache.clear()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        threads = [threading.Thread(target=hammer, args=(s,)) for s in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not failures, f"cache raced: {failures[:3]}"
        info = cache.info()
        assert info["tours"] <= 32
        assert info["hits"] + info["misses"] > 0

    def test_tallies_exact_under_contention(self):
        """Regression: ``hits``/``misses`` were plain attributes read
        unlocked by ``__repr__``/``info()`` and external callers. With the
        locked :meth:`tally` accessor, a deterministic workload (every get
        on a pre-populated key hits, every get on an absent key misses, no
        writes in flight) must account for every single operation."""
        import threading

        cache = PlanArtifactCache()
        present, absent = frozenset({1, 2}), frozenset({9})
        cache.put_tours("fp", present, False, ())
        n_threads, n_ops = 8, 2000
        start = threading.Barrier(n_threads)
        failures: list[BaseException] = []

        def hammer() -> None:
            try:
                start.wait(timeout=10)
                for _ in range(n_ops):
                    assert cache.get_tours("fp", present, False) == ()
                    assert cache.get_tours("fp", absent, False) is None
                    h, m = cache.tally()  # consistent pair mid-contention
                    assert 0 <= h <= n_threads * n_ops
                    assert 0 <= m <= n_threads * n_ops
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not failures, f"tally raced: {failures[:3]}"
        assert cache.tally() == (n_threads * n_ops, n_threads * n_ops)
        info = cache.info()
        assert (info["hits"], info["misses"]) == cache.tally()
        assert (cache.hits, cache.misses) == cache.tally()

    def test_shared_across_planning_threads(self, net):
        """The service's real pattern: many threads planning against ONE
        cache must be crash-free and still produce identical tours."""
        import threading

        cache = PlanArtifactCache()
        reference = min_total_distance(net, 150.0)
        outputs: list[tuple] = []
        failures: list[BaseException] = []
        start = threading.Barrier(6)

        def plan_once() -> None:
            try:
                start.wait(timeout=10)
                for _ in range(5):
                    result = min_total_distance(net, 150.0, cache=cache)
                    outputs.append(result.levels)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        threads = [threading.Thread(target=plan_once) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not failures
        assert len(outputs) == 30
        assert all(levels == reference.levels for levels in outputs)
