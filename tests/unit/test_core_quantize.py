"""Unit tests for :mod:`repro.core.quantize`."""

import numpy as np
import pytest

from repro.core.quantize import quantize_cycles
from repro.errors import ScheduleError


class TestBasicStructure:
    def test_powers_of_two(self):
        q = quantize_cycles(np.array([1.0, 2.0, 4.0, 8.0]))
        assert q.tau1 == 1.0
        assert q.K == 3
        np.testing.assert_array_equal(q.k_of, [0, 1, 2, 3])
        np.testing.assert_array_equal(q.assigned, [1, 2, 4, 8])

    def test_interval_membership(self):
        # tau in [2^k tau1, 2^(k+1) tau1) -> class k
        q = quantize_cycles(np.array([1.0, 1.5, 1.99, 2.0, 3.9, 4.0]))
        np.testing.assert_array_equal(q.k_of, [0, 0, 0, 1, 1, 2])

    def test_non_unit_base(self):
        q = quantize_cycles(np.array([3.0, 7.0, 13.0]))
        assert q.tau1 == 3.0
        np.testing.assert_array_equal(q.k_of, [0, 1, 2])
        np.testing.assert_array_equal(q.assigned, [3, 6, 12])

    def test_single_sensor(self):
        q = quantize_cycles(np.array([5.0]))
        assert q.K == 0 and q.block_size == 1 and q.block_cycle == 5.0

    def test_paper_inequality_tau_half(self):
        rng = np.random.default_rng(0)
        tau = rng.uniform(1, 50, size=500)
        q = quantize_cycles(tau)
        assert np.all(q.assigned <= tau * (1 + 1e-9))
        assert np.all(q.assigned > tau / 2 * (1 - 1e-9))

    def test_validate_passes(self):
        quantize_cycles(np.random.default_rng(1).uniform(0.1, 99, 300)).validate()

    def test_float_knife_edge_exact_power(self):
        # 2.0 must land in class 1 (assigned exactly 2), not class 0.
        q = quantize_cycles(np.array([1.0, 2.0 * (1 - 1e-15), 2.0]))
        assert q.k_of[2] == 1
        assert q.assigned[2] == pytest.approx(2.0)


class TestBlockProperties:
    def test_block_size_and_cycle(self):
        q = quantize_cycles(np.array([1.0, 50.0]))
        assert q.K == 5  # floor(log2 50) = 5
        assert q.block_size == 32
        assert q.block_cycle == 32.0

    def test_members_partition(self):
        tau = np.random.default_rng(2).uniform(1, 50, 100)
        q = quantize_cycles(tau)
        all_members = np.concatenate([q.members(k) for k in range(q.K + 1)])
        assert sorted(all_members) == list(range(100))

    def test_members_out_of_range_raises(self):
        q = quantize_cycles(np.array([1.0, 2.0]))
        with pytest.raises(ScheduleError):
            q.members(5)


class TestSensorsDueAt:
    def test_schedule_pattern(self):
        # Classes: sensor0 in V0, sensor1 in V1, sensor2 in V2.
        q = quantize_cycles(np.array([1.0, 2.0, 4.0]))
        assert set(q.sensors_due_at(1)) == {0}
        assert set(q.sensors_due_at(2)) == {0, 1}
        assert set(q.sensors_due_at(3)) == {0}
        assert set(q.sensors_due_at(4)) == {0, 1, 2}

    def test_full_coverage_at_block_end(self):
        tau = np.random.default_rng(3).uniform(1, 50, 60)
        q = quantize_cycles(tau)
        assert set(q.sensors_due_at(q.block_size)) == set(range(60))

    def test_each_sensor_charged_at_its_period(self):
        tau = np.array([1.0, 2.0, 4.0, 8.0])
        q = quantize_cycles(tau)
        for i in range(4):
            period = int(q.assigned[i])
            for j in range(1, q.block_size + 1):
                due = i in q.sensors_due_at(j)
                assert due == (j % period == 0)

    def test_rejects_j_zero(self):
        q = quantize_cycles(np.array([1.0]))
        with pytest.raises(ScheduleError):
            q.sensors_due_at(0)


class TestCoverageLevels:
    def test_level_of_matches_divisor_pattern(self):
        q = quantize_cycles(np.array([1.0, 2.0, 4.0, 8.0]))
        assert [q.level_of(j) for j in range(1, 9)] == [0, 1, 0, 2, 0, 1, 0, 3]
        # Periodic mod b^K: global indices work directly.
        assert q.level_of(8) == q.level_of(16) == 3

    def test_level_of_rejects_j_zero(self):
        q = quantize_cycles(np.array([1.0, 2.0]))
        with pytest.raises(ScheduleError):
            q.level_of(0)

    def test_coverage_sets_are_prefix_unions(self):
        q = quantize_cycles(np.array([1.0, 2.0, 4.0]))
        sets = q.coverage_sets()
        assert sets == (frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2}))

    def test_coverage_sets_match_sensors_due_at(self):
        tau = np.random.default_rng(4).uniform(1, 50, 40)
        q = quantize_cycles(tau)
        sets = q.coverage_sets()
        for j in range(1, q.block_size + 1):
            assert sets[q.level_of(j)] == frozenset(
                int(s) for s in q.sensors_due_at(j))

    def test_level_members_are_the_sorted_coverage_sets(self):
        tau = np.random.default_rng(5).uniform(1, 50, 40)
        q = quantize_cycles(tau)
        for v, cov in enumerate(q.coverage_sets()):
            assert q.level_members(v).tolist() == sorted(cov)
        with pytest.raises(ScheduleError):
            q.level_members(q.K + 1)

    def test_multiplicities_sum_to_block_size(self):
        # #{j in [1, b^K] : level_of(j) == v} is b^(K-v) - b^(K-v-1) for
        # v < K and 1 for v = K; the counts sum to the block size.
        for tau in ([1.0, 2.0, 4.0, 8.0], [1.0, 50.0], [5.0], [1.0, 9.0]):
            for base in (2, 3):
                q = quantize_cycles(np.array(tau), base=base)
                counts = [0] * (q.K + 1)
                for j in range(1, q.block_size + 1):
                    counts[q.level_of(j)] += 1
                b, K = q.base, q.K
                assert counts == [b ** (K - v) - b ** (K - v - 1)
                                  for v in range(K)] + [1]
                assert sum(counts) == q.block_size

    def test_huge_spread_no_materialization(self):
        # Regression: tau_max/tau_1 = 2^40 used to attempt a 2^40-element
        # tuple in coverage_sets() and OOM. Now O(K).
        q = quantize_cycles(np.array([1.0, 2.0 ** 40]))
        assert q.K == 40
        assert q.block_size == 2 ** 40
        sets = q.coverage_sets()
        assert len(sets) == 41
        assert sets[0] == frozenset({0})
        assert sets[-1] == frozenset({0, 1})
        assert q.level_of(2 ** 40) == 40

    def test_absurd_spread_rejected(self):
        # A ratio beyond b^512 cannot come from a real instance.
        with pytest.raises(ScheduleError, match="not a schedulable instance"):
            quantize_cycles(np.array([1.0, 1e300]))

    def test_enumerable_block_size_guard(self):
        q = quantize_cycles(np.array([1.0, 2.0 ** 40]))
        with pytest.raises(ScheduleError, match="too large to enumerate"):
            q.enumerable_block_size()
        small = quantize_cycles(np.array([1.0, 8.0]))
        assert small.enumerable_block_size() == 8


class TestValidation:
    @pytest.mark.parametrize("bad", [
        np.array([]), np.array([[1.0]]), np.array([0.0]), np.array([-1.0]),
        np.array([np.inf]), np.array([np.nan]),
    ])
    def test_rejects_bad_input(self, bad):
        with pytest.raises(ScheduleError):
            quantize_cycles(bad)

    def test_huge_ratio(self):
        q = quantize_cycles(np.array([0.001, 1000.0]))
        assert q.K == 19  # floor(log2 1e6) = 19
        assert q.assigned[1] <= 1000.0


class TestGeneralBase:
    def test_base3_classes(self):
        q = quantize_cycles(np.array([1.0, 2.9, 3.0, 8.9, 9.0]), base=3)
        np.testing.assert_array_equal(q.k_of, [0, 0, 1, 1, 2])
        np.testing.assert_allclose(q.assigned, [1, 1, 3, 3, 9])
        assert q.block_size == 9

    def test_base_sandwich_inequality(self):
        rng = np.random.default_rng(0)
        tau = rng.uniform(1, 50, 300)
        for b in (2, 3, 4, 5):
            q = quantize_cycles(tau, base=b)
            assert np.all(q.assigned <= tau * (1 + 1e-9))
            assert np.all(q.assigned * b > tau * (1 - 1e-9))

    def test_larger_base_means_fewer_classes(self):
        tau = np.random.default_rng(1).uniform(1, 50, 200)
        ks = [quantize_cycles(tau, base=b).K for b in (2, 3, 4, 8)]
        assert ks == sorted(ks, reverse=True)

    def test_due_pattern_respects_base(self):
        q = quantize_cycles(np.array([1.0, 3.0, 9.0]), base=3)
        assert set(q.sensors_due_at(1)) == {0}
        assert set(q.sensors_due_at(3)) == {0, 1}
        assert set(q.sensors_due_at(9)) == {0, 1, 2}

    @pytest.mark.parametrize("bad", [1, 0, -2, 2.5, "2"])
    def test_rejects_bad_base(self, bad):
        with pytest.raises(ScheduleError):
            quantize_cycles(np.array([1.0, 2.0]), base=bad)

    def test_plan_with_base3_feasible(self, tiny_network):
        from repro.core.feasibility import check_feasibility
        from repro.core.mintotal import min_total_distance

        res = min_total_distance(tiny_network, horizon=30.0, base=3)
        assert check_feasibility(res.plan, tiny_network.cycles).feasible

    def test_plan_with_base3_simulates_perpetually(self, paper_network_small):
        from repro.core.mintotal import min_total_distance
        from repro.sim.engine import simulate
        from repro.sim.policies import PlannedPolicy
        from repro.sim.workload import FixedWorkload

        net = paper_network_small
        res = min_total_distance(net, horizon=120.0, base=3)
        out = simulate(net, PlannedPolicy(res.plan),
                       FixedWorkload.from_network(net), 120.0)
        assert out.metrics.perpetual
