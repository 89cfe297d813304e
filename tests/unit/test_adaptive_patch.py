"""Unit tests for :mod:`repro.adaptive.patch`."""

import numpy as np
import pytest

from repro.adaptive.patch import build_patch
from repro.core.quantize import quantize_cycles
from repro.errors import ScheduleError


@pytest.fixture
def quant(tiny_network):
    """Quantisation of the tiny network's cycles [1,2,4,8,2,4]."""
    return quantize_cycles(tiny_network.cycles)


class TestNoUrgentSensors:
    def test_all_lifetimes_sufficient(self, tiny_network, quant):
        # Everyone survives to their assigned cycle: no patch needed.
        lifetimes = quant.assigned.copy()
        patch = build_patch(tiny_network, quant, lifetimes)
        assert patch.urgent == frozenset()
        assert all(t is None for t in patch.tours)
        assert patch.sets[0] == frozenset()

    def test_base_sets_match_quantisation(self, tiny_network, quant):
        patch = build_patch(tiny_network, quant, quant.assigned.copy())
        for j in range(1, quant.block_size + 1):
            assert patch.sets[j] == frozenset(int(s) for s in quant.sensors_due_at(j))


class TestImmediateCharging:
    def test_nearly_dead_sensor_goes_to_c0(self, tiny_network, quant):
        lifetimes = quant.assigned.copy()
        lifetimes[3] = 0.1  # sensor 3 (tau'=8) about to die
        patch = build_patch(tiny_network, quant, lifetimes)
        assert 3 in patch.urgent
        assert 3 in patch.sets[0]
        assert patch.tours[0] is not None
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
            charged_js = [j for j in range(quant.block_size + 1)
                          if 3 in patch.sets[j]]
            assert min(charged_js) <= 2

    def test_defer_avoids_spurious_immediate_dispatch(self, tiny_network, quant):
        # With the deferring tie-break and an empty C'_0, the patch must not
        # invent an immediate dispatch for a sensor that can wait.
        lifetimes = quant.assigned.copy()
        lifetimes[3] = 2.5
        patch = build_patch(tiny_network, quant, lifetimes, tie_break="defer")
        assert patch.sets[0] == frozenset()

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
            js = [j for j in range(quant3.block_size + 1)
                  if 3 in patch.sets[j]]
            assert min(js) <= 3  # within the base-3 class-1 window
        # Deferring must avoid the spurious immediate dispatch.
        assert min(j for j in range(quant3.block_size + 1)
                   if 3 in patch.sets[j]) >= 1

    def test_sensor_with_exact_tau1_lifetime_in_class0(self, tiny_network, quant):
        lifetimes = quant.assigned.copy()
        lifetimes[3] = 1.0  # exactly tau1: class V^a_0 -> scheduling 0 or 1
        patch = build_patch(tiny_network, quant, lifetimes)
        charged_js = [j for j in range(quant.block_size + 1) if 3 in patch.sets[j]]
        assert min(charged_js) <= 1

    def test_only_changed_schedulings_retoured(self, tiny_network, quant):
        lifetimes = quant.assigned.copy()
        lifetimes[3] = 2.5
        patch = build_patch(tiny_network, quant, lifetimes)
        changed = {j for j in range(quant.block_size + 1)
                   if patch.tours[j] is not None}
        # Exactly the schedulings whose sets grew (no immediate C'_0 here).
        for j in changed:
            assert j == 0 or patch.sets[j] != frozenset(
                int(s) for s in quant.sensors_due_at(j))
        assert patch.n_patched_schedulings == len(changed)

    def test_patched_tours_cover_their_sets(self, tiny_network, quant):
        lifetimes = quant.assigned * 0.6  # everyone urgent
        patch = build_patch(tiny_network, quant, lifetimes)
        for j in range(quant.block_size + 1):
            if patch.tours[j] is not None:
                covered = set().union(*(t.visited() for t in patch.tours[j]))
                assert patch.sets[j] <= covered


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
                grown += sum(t is not None for t in warm.tours[1:])
        assert grown >= 1

    def test_without_cache_falls_back_to_full(self, tiny_network, quant):
        from repro.obs.instrument import Instrumentation

        lifetimes = quant.assigned.copy()
        lifetimes[2] *= 0.6
        obs = Instrumentation()
        patch = build_patch(tiny_network, quant, lifetimes, cache=None,
                            obs=obs)
        counters = obs.snapshot().counters
        assert patch.n_patched_schedulings >= 1
        assert counters["patch.retoured"] == patch.n_patched_schedulings
