"""Property-based tests for the simulator: energy conservation and
policy-independent invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.state import EnergyState


class TestEnergyStateProperties:
    @given(st.lists(st.floats(0.125, 10, allow_nan=False, width=32),
                    min_size=1, max_size=20),
           st.lists(st.floats(0, 5, allow_nan=False, width=32),
                    min_size=1, max_size=20),
           st.floats(0, 10, allow_nan=False, width=32))
    @settings(max_examples=100, deadline=None)
    def test_drain_conserves_or_clamps(self, batteries, rates, duration):
        n = min(len(batteries), len(rates))
        b = np.asarray(batteries[:n], dtype=np.float64)
        r = np.asarray(rates[:n], dtype=np.float64)
        s = EnergyState(b)
        s.drain(r, float(duration), 0.0)
        exact = b - r * float(duration)
        np.testing.assert_allclose(s.energy, np.maximum(exact, 0.0), atol=1e-9)

    @given(st.lists(st.floats(0.125, 10, allow_nan=False, width=32),
                    min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_charge_restores_exactly(self, batteries):
        b = np.asarray(batteries, dtype=np.float64)
        s = EnergyState(b)
        s.drain(np.full(b.shape, 0.01), 1.0, 0.0)
        s.charge_full(list(range(b.shape[0])))
        np.testing.assert_array_equal(s.energy, b)

    @given(st.lists(st.floats(0.5, 4.0, allow_nan=False, width=32),
                    min_size=1, max_size=10),
           st.integers(1, 20))
    @settings(max_examples=50, deadline=None)
    def test_death_count_matches_energy_budget(self, batteries, steps):
        """Draining battery B at rate 1 for total time > B must kill the
        sensor exactly once, at exactly t = B, regardless of step split."""
        b = np.asarray(batteries, dtype=np.float64)
        s = EnergyState(b)
        total = float(b.max()) + 1.0
        dt = total / steps
        t = 0.0
        deaths: dict[int, float] = {}
        for _ in range(steps):
            sensors, times = s.drain(np.ones_like(b), dt, t)
            for i, when in zip(sensors.tolist(), times.tolist()):
                assert i not in deaths
                deaths[i] = when
            t += dt
        assert len(deaths) == b.shape[0]
        for i, cap in enumerate(b):
            assert abs(deaths[i] - cap) < 1e-6
