"""Unit tests for :mod:`repro.adaptive.patch`."""

import numpy as np
import pytest

from repro.adaptive.patch import _REL_TOL, build_patch
from repro.core.quantize import quantize_cycles
from repro.errors import ScheduleError
from repro.network.builder import build_paper_network
from repro.rooted.msf import rooted_msf


@pytest.fixture
def quant(tiny_network):
    """Quantisation of the tiny network's cycles [1,2,4,8,2,4]."""
    return quantize_cycles(tiny_network.cycles)


def base_set(quant, j):
    """Scheduling ``j``'s sensor set before the repair."""
    if j == 0:
        return frozenset()
    return frozenset(quant.level_members(quant.level_of(j)).tolist())


def set_of(patch, quant, j):
    """Scheduling ``j``'s final set: the grown one, else its level's."""
    return patch.sets.get(j, base_set(quant, j))


def charged_at(patch, quant, s):
    """Every scheduling ``0 .. b^K`` whose final set holds sensor ``s``."""
    return [j for j in range(quant.block_size + 1) if s in set_of(patch, quant, j)]


def dense_patch_sets(network, quant, lifetimes, tie_break):
    """The repair with every scheduling ``0 .. b^k`` as a root column, over
    slices of the full distance matrix: the grown sets it yields."""
    dist = network.dist
    depots = [int(i) for i in network.depot_indices]
    urgent = np.nonzero(lifetimes < quant.assigned * (1.0 - _REL_TOL))[0]
    sets = [set(base_set(quant, j)) for j in range(quant.block_size + 1)]
    immediate = urgent[lifetimes[urgent] < quant.tau1 * (1.0 - _REL_TOL)]
    sets[0].update(int(s) for s in immediate)
    rest = np.setdiff1d(urgent, immediate, assume_unique=True)
    k_of = np.clip(np.floor(np.log(lifetimes[rest] / quant.tau1 * (1.0 + _REL_TOL))
                            / np.log(float(quant.base))).astype(np.int64), 0, quant.K)
    for k in range(quant.K + 1):
        s_idx = rest[k_of == k].astype(np.intp)
        if s_idx.size == 0:
            continue
        cols = list(range(quant.base ** k + 1))
        if tie_break == "defer":
            cols.reverse()
        root_costs = np.empty((s_idx.size, len(cols)))
        for col, j in enumerate(cols):
            anchor = np.asarray(sorted(sets[j]) + depots, dtype=np.intp)
            root_costs[:, col] = dist[np.ix_(s_idx, anchor)].min(axis=1)
        assignment = rooted_msf(dist[np.ix_(s_idx, s_idx)], root_costs)
        for local, owner in enumerate(assignment.owner):
            sets[cols[int(owner)]].add(int(s_idx[local]))
    return {j: frozenset(s) for j, s in enumerate(sets) if s != base_set(quant, j)}


class TestNoUrgentSensors:
    def test_all_lifetimes_sufficient(self, tiny_network, quant):
        # Everyone survives to their assigned cycle: no patch needed.
        lifetimes = quant.assigned.copy()
        patch = build_patch(tiny_network, quant, lifetimes)
        assert patch.urgent == frozenset()
        assert patch.sets == {} and patch.tours == {}


class TestImmediateCharging:
    def test_nearly_dead_sensor_goes_to_c0(self, tiny_network, quant):
        lifetimes = quant.assigned.copy()
        lifetimes[3] = 0.1  # sensor 3 (tau'=8) about to die
        patch = build_patch(tiny_network, quant, lifetimes)
        assert 3 in patch.urgent
        assert 3 in patch.sets[0]
        assert 0 in patch.tours
        covered = set().union(*(t.visited() for t in patch.tours[0]))
        assert 3 in covered

    def test_zero_lifetime_allowed(self, tiny_network, quant):
        lifetimes = quant.assigned.copy()
        lifetimes[2] = 0.0
        patch = build_patch(tiny_network, quant, lifetimes)
        assert 2 in patch.sets[0]


class TestClassedAttachment:
    def test_sensor_attached_within_lifetime(self, tiny_network, quant):
        # Sensor 3 has tau' = 8 but only 2.5 lifetime: it must be charged by
        # scheduling j <= 2 (time 2 * tau1 = 2 <= 2.5), in either tie mode.
        lifetimes = quant.assigned.copy()
        lifetimes[3] = 2.5
        for mode in ("immediate", "defer"):
            patch = build_patch(tiny_network, quant, lifetimes, tie_break=mode)
            assert 3 in patch.urgent
            assert min(charged_at(patch, quant, 3)) <= 2

    def test_defer_avoids_spurious_immediate_dispatch(self, tiny_network, quant):
        # With the deferring tie-break and an empty C'_0, the patch must not
        # invent an immediate dispatch for a sensor that can wait.
        lifetimes = quant.assigned.copy()
        lifetimes[3] = 2.5
        patch = build_patch(tiny_network, quant, lifetimes, tie_break="defer")
        assert 0 not in patch.sets and 0 not in patch.tours

    def test_unknown_tie_break_raises(self, tiny_network, quant):
        with pytest.raises(ScheduleError):
            build_patch(tiny_network, quant, quant.assigned.copy(),
                        tie_break="random")

    def test_generalised_base_patch(self, tiny_network):
        """The patch respects a non-binary quantisation base: a sensor with
        lifetime in [3 tau1, 9 tau1) may join schedulings 0..3 only."""
        quant3 = quantize_cycles(
            np.array([1.0, 2.0, 9.0, 27.0, 2.0, 4.0]), base=3)
        assert quant3.block_size == 27
        lifetimes = quant3.assigned.copy()
        # Sensor 3 (assigned 27) caught with lifetime 4: base-3 class k=1
        # ([3, 9)), so it must be charged by scheduling j <= 3.
        lifetimes[3] = 4.0
        for mode in ("immediate", "defer"):
            patch = build_patch(tiny_network, quant3, lifetimes, tie_break=mode)
            assert 3 in patch.urgent
            assert min(charged_at(patch, quant3, 3)) <= 3  # base-3 class-1 window
        # Deferring must avoid the spurious immediate dispatch.
        assert min(charged_at(patch, quant3, 3)) >= 1

    def test_sensor_with_exact_tau1_lifetime_in_class0(self, tiny_network, quant):
        lifetimes = quant.assigned.copy()
        lifetimes[3] = 1.0  # exactly tau1: class V^a_0 -> scheduling 0 or 1
        patch = build_patch(tiny_network, quant, lifetimes)
        assert min(charged_at(patch, quant, 3)) <= 1

    def test_only_changed_schedulings_retoured(self, tiny_network, quant):
        lifetimes = quant.assigned.copy()
        lifetimes[3] = 2.5
        patch = build_patch(tiny_network, quant, lifetimes)
        # Exactly the schedulings whose sets grew (no immediate C'_0 here).
        assert list(patch.tours) == list(patch.sets) == sorted(patch.sets)
        for j in patch.sets:
            assert j == 0 or patch.sets[j] > base_set(quant, j)

    def test_patched_tours_cover_their_sets(self, tiny_network, quant):
        lifetimes = quant.assigned * 0.6  # everyone urgent
        patch = build_patch(tiny_network, quant, lifetimes)
        assert patch.tours
        for j, tours in patch.tours.items():
            covered = set().union(*(t.visited() for t in tours))
            assert patch.sets[j] <= covered

    def test_wide_spread_is_repaired(self, tiny_network):
        # K = 30: a block of 2^30 schedulings, of which the repair builds
        # only the O(K) that can win plus the ones it grows.
        quant = quantize_cycles(
            np.array([1.0, 2.0 ** 30, 4.0, 2.0 ** 10, 2.0, 2.0 ** 20]))
        assert quant.K == 30
        lifetimes = quant.assigned.copy()
        lifetimes[1] = 2.0 ** 12 + 0.5  # class 12: schedulings 0 .. 4096
        lifetimes[5] = 3.0              # class 1: schedulings 0 .. 2
        for mode in ("immediate", "defer"):
            patch = build_patch(tiny_network, quant, lifetimes, tie_break=mode)
            assert patch.urgent == {1, 5}
            assert list(patch.tours) == list(patch.sets)
            for s, window in ((1, 2 ** 12), (5, 2)):
                assert any(s in patch.sets[j] for j in patch.sets if j <= window)
            for j, tours in patch.tours.items():
                assert patch.sets[j] <= set().union(*(t.visited() for t in tours))


class TestDenseOracle:
    """Keeping only the root columns that can win changes nothing: the
    repair equals the one with every scheduling ``0 .. b^k`` as a column."""

    @pytest.mark.parametrize("tie_break", ["immediate", "defer"])
    @pytest.mark.parametrize("base", [2, 3])
    def test_matches_every_slot_as_a_column(self, base, tie_break):
        rng = np.random.default_rng([base, tie_break == "defer"])
        grown = 0
        for _ in range(12):
            n = int(rng.integers(10, 80))
            net = build_paper_network(n=n, q=int(rng.integers(1, 5)),
                                      seed=int(rng.integers(1 << 30)))
            quant = quantize_cycles(rng.uniform(1.0, 60.0, n), base=base)
            lifetimes = quant.assigned * rng.uniform(0.05, 1.5, n)
            patch = build_patch(net, quant, lifetimes, tie_break=tie_break)
            assert patch.sets == dense_patch_sets(net, quant, lifetimes, tie_break)
            assert list(patch.tours) == list(patch.sets)
            grown += sum(j >= 1 for j in patch.sets)
        assert grown >= 12

    @pytest.mark.parametrize("tie_break", ["immediate", "defer"])
    def test_lifetime_rounding_into_own_class_grows_nothing(self, tiny_network,
                                                           quant, tie_break):
        # Urgent by an ulp: the class rounds up to sensor 3's own level, so
        # it joins scheduling 8, which already charges it.
        lifetimes = quant.assigned.copy()
        lifetimes[3] = np.nextafter(8.0 * (1.0 - _REL_TOL), 0.0)
        patch = build_patch(tiny_network, quant, lifetimes, tie_break=tie_break)
        assert patch.urgent == {3}
        assert patch.sets == patch.tours == {}
        assert dense_patch_sets(tiny_network, quant, lifetimes, tie_break) == {}


class TestValidation:
    def test_wrong_shape_raises(self, tiny_network, quant):
        with pytest.raises(ScheduleError):
            build_patch(tiny_network, quant, np.ones(3))

    def test_negative_lifetime_raises(self, tiny_network, quant):
        bad = quant.assigned.copy()
        bad[0] = -0.5
        with pytest.raises(ScheduleError):
            build_patch(tiny_network, quant, bad)


class TestIncrementalRetouring:
    """Grown schedulings are re-toured from scratch, warm cache or not."""

    def _warm_cache(self, tiny_network):
        from repro.core.mintotal import min_total_distance
        from repro.plan.cache import PlanArtifactCache

        cache = PlanArtifactCache()
        min_total_distance(tiny_network, 64.0, cache=cache)
        return cache

    def test_warm_cache_matches_uncached(self, tiny_network, quant):
        # Urgent-but-not-immediate sensors force grown schedulings; the
        # warm cache (base forests and tours of this plan) must change
        # nothing about how they are re-toured.
        lifetimes = quant.assigned.copy()
        lifetimes[2] *= 0.6
        lifetimes[3] *= 0.6
        grown = 0
        for refine in (False, True):
            for tie_break in ("immediate", "defer"):
                warm = build_patch(tiny_network, quant, lifetimes,
                                   refine=refine, tie_break=tie_break,
                                   cache=self._warm_cache(tiny_network))
                cold = build_patch(tiny_network, quant, lifetimes,
                                   refine=refine, tie_break=tie_break,
                                   cache=None)
                assert warm.sets == cold.sets
                assert warm.tours == cold.tours
                assert warm.urgent == cold.urgent
                grown += sum(j >= 1 for j in warm.tours)
        assert grown >= 1

    def test_without_cache_falls_back_to_full(self, tiny_network, quant):
        from repro.obs.instrument import Instrumentation

        lifetimes = quant.assigned.copy()
        lifetimes[2] *= 0.6
        obs = Instrumentation()
        patch = build_patch(tiny_network, quant, lifetimes, cache=None,
                            obs=obs)
        counters = obs.snapshot().counters
        assert len(patch.tours) >= 1
        assert counters["patch.retoured"] == len(patch.tours)
