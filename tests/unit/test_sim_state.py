"""Unit tests for :mod:`repro.sim.state`."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.state import EnergyState


@pytest.fixture
def state():
    return EnergyState(np.array([1.0, 2.0, 4.0]))


class TestBasics:
    def test_starts_full(self, state):
        np.testing.assert_array_equal(state.energy, [1, 2, 4])
        np.testing.assert_array_equal(state.fraction, [1, 1, 1])

    def test_readonly_views(self, state):
        with pytest.raises(ValueError):
            state.energy[0] = 0.0
        with pytest.raises(ValueError):
            state.batteries[0] = 0.0

    def test_rejects_bad_batteries(self):
        with pytest.raises(SimulationError):
            EnergyState(np.array([]))
        with pytest.raises(SimulationError):
            EnergyState(np.array([1.0, 0.0]))


class TestDrain:
    def test_linear_drain(self, state):
        sensors, times = state.drain(np.array([0.5, 0.5, 0.5]), 2.0, 0.0)
        assert sensors.size == 0 and times.size == 0
        np.testing.assert_allclose(state.energy, [0.0, 1.0, 3.0])

    def test_death_time_interpolated(self, state):
        sensors, times = state.drain(np.array([1.0, 0.0, 0.0]), 2.0, 10.0)
        assert sensors.tolist() == [0]
        assert times[0] == pytest.approx(11.0)

    def test_energy_clamped_at_zero(self, state):
        state.drain(np.array([1.0, 0.0, 0.0]), 5.0, 0.0)
        assert state.energy[0] == 0.0

    def test_no_double_death_report(self, state):
        first, _ = state.drain(np.array([1.0, 0.0, 0.0]), 2.0, 0.0)
        again, _ = state.drain(np.array([1.0, 0.0, 0.0]), 2.0, 2.0)
        assert first.tolist() == [0]
        assert again.size == 0

    def test_multiple_deaths_sorted_by_time(self):
        s = EnergyState(np.array([1.0, 2.0]))
        sensors, times = s.drain(np.array([1.0, 4.0]), 1.5, 0.0)
        # sensor 1 dies at 2.0/4.0 = 0.5, sensor 0 at 1.0/1.0 = 1.0.
        assert sensors.tolist() == [1, 0]
        assert times[0] == pytest.approx(0.5)
        assert times[1] == pytest.approx(1.0)

    def test_simultaneous_deaths_keep_index_order(self):
        s = EnergyState(np.array([2.0, 1.0, 1.0, 2.0]))
        sensors, times = s.drain(np.array([2.0, 1.0, 1.0, 2.0]), 2.0, 0.0)
        assert sensors.tolist() == [0, 1, 2, 3]
        assert times.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_knife_edge_exact_zero_is_alive(self, state):
        sensors, _ = state.drain(np.array([0.5, 0.0, 0.0]), 2.0, 0.0)
        assert sensors.size == 0  # hits exactly 0.0 -> alive (paper's convention)

    def test_zero_duration_noop(self, state):
        before = state.energy.copy()
        sensors, times = state.drain(np.array([1.0, 1.0, 1.0]), 0.0, 0.0)
        assert sensors.size == 0 and times.size == 0
        np.testing.assert_array_equal(state.energy, before)

    def test_negative_duration_raises(self, state):
        with pytest.raises(SimulationError):
            state.drain(np.zeros(3), -1.0, 0.0)

    def test_wrong_shape_raises(self, state):
        with pytest.raises(SimulationError):
            state.drain(np.zeros(2), 1.0, 0.0)

    def test_ever_died_mask(self, state):
        state.drain(np.array([1.0, 0.0, 0.0]), 5.0, 0.0)
        np.testing.assert_array_equal(state.ever_died(), [True, False, False])


class TestCharge:
    def test_charge_full_restores(self, state):
        state.drain(np.array([0.4, 0.4, 0.4]), 1.0, 0.0)
        state.charge_full([0, 2])
        np.testing.assert_allclose(state.energy, [1.0, 1.6, 4.0])

    def test_charge_empty_list_noop(self, state):
        state.charge_full([])
        np.testing.assert_array_equal(state.energy, [1, 2, 4])

    def test_charge_out_of_range_raises(self, state):
        with pytest.raises(SimulationError):
            state.charge_full([5])

    def test_dead_sensor_revives_on_charge(self, state):
        state.drain(np.array([1.0, 0.0, 0.0]), 5.0, 0.0)
        state.charge_full([0])
        assert state.energy[0] == 1.0
        assert state.ever_died()[0]  # history remains

    def test_lifetimes(self, state):
        lt = state.residual_lifetimes(np.array([0.5, 0.0, 2.0]))
        assert lt[0] == pytest.approx(2.0)
        assert lt[1] == np.inf
        assert lt[2] == pytest.approx(2.0)
