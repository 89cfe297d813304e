"""Ground-truth per-sensor energy state and charger-fleet availability."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import SimulationError

__all__ = ["EnergyState", "ChargerFleet"]

#: What :meth:`EnergyState.drain` returns when nobody died (zero-length,
#: so sharing it is safe).
_NO_DEATHS = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.float64))

#: Sensors whose energy reaches at least ``-_REL_TOL * battery`` are treated
#: as alive: "the battery hits zero exactly as the charger arrives" is a
#: legal knife-edge in the paper's model (gaps may equal tau_i exactly).
_REL_TOL = 1e-6


class EnergyState:
    """Mutable energy vector with drain / charge / death bookkeeping.

    Parameters
    ----------
    batteries:
        ``(n,)`` battery capacities; sensors start full.

    Notes
    -----
    Dead sensors keep draining toward (clamped) zero and *can* be revived by
    a later charge — the simulator records the death event either way, and
    strict callers turn any death into an error. This keeps long experiment
    sweeps running while still reporting every violation.
    """

    __slots__ = ("_batteries", "_energy", "_death_floor", "_ever_died",
                 "_currently_dead", "_online", "_n_offline")

    def __init__(self, batteries: np.ndarray) -> None:
        b = np.asarray(batteries, dtype=np.float64)
        if b.ndim != 1 or b.size == 0:
            raise SimulationError(f"EnergyState: need (n,) batteries, got shape {b.shape}")
        if np.any(b <= 0):
            raise SimulationError("EnergyState: batteries must be positive")
        self._batteries = b.copy()
        self._energy = b.copy()
        self._death_floor = -(b * _REL_TOL)
        self._ever_died = np.zeros(b.shape[0], dtype=bool)
        # Dead *now* (cleared by a charge); distinct from the historical
        # ever_died so a revived sensor's second death is reported again.
        self._currently_dead = np.zeros(b.shape[0], dtype=bool)
        # Membership overlay for churn scenarios: offline sensors neither
        # drain nor die nor accept charge. All-online is the static case and
        # must add zero work to it, hence the cached counter.
        self._online = np.ones(b.shape[0], dtype=bool)
        self._n_offline = 0

    # -------------------------------------------------------------- accessors
    @property
    def n(self) -> int:
        return self._batteries.shape[0]

    @property
    def batteries(self) -> np.ndarray:
        """Read-only battery capacities."""
        v = self._batteries.view()
        v.setflags(write=False)
        return v

    @property
    def energy(self) -> np.ndarray:
        """Read-only current energy levels (clamped at 0)."""
        v = self._energy.view()
        v.setflags(write=False)
        return v

    @property
    def fraction(self) -> np.ndarray:
        """Energy as a fraction of capacity."""
        return self._energy / self._batteries

    def residual_lifetimes(self, rates: np.ndarray) -> np.ndarray:
        """``(n,)`` time each sensor survives at the given drain rates."""
        r = np.asarray(rates, dtype=np.float64)
        return np.divide(self._energy, r, out=np.full(self.n, np.inf), where=r > 0)

    def ever_died(self) -> np.ndarray:
        """Boolean mask of sensors that died at least once."""
        return self._ever_died.copy()

    # ------------------------------------------------------------- membership
    @property
    def online(self) -> np.ndarray:
        """Read-only membership mask (``True`` = online)."""
        v = self._online.view()
        v.setflags(write=False)
        return v

    @property
    def any_offline(self) -> bool:
        """True when at least one sensor is currently offline."""
        return self._n_offline > 0

    def online_sensors(self) -> np.ndarray:
        """Indices of currently-online sensors, ascending."""
        return np.nonzero(self._online)[0]

    def set_online(self, sensor: int, online: bool) -> None:
        """Flip one sensor's membership. A sensor going offline keeps its
        current energy frozen; a rejoining sensor resumes from that level."""
        s = int(sensor)
        if not 0 <= s < self.n:
            raise SimulationError(f"set_online: sensor {s} out of range 0..{self.n - 1}")
        if bool(self._online[s]) == bool(online):
            return
        self._online[s] = bool(online)
        self._n_offline += -1 if online else 1

    def effective_rates(self, rates: np.ndarray) -> np.ndarray:
        """Drain rates with offline sensors zeroed. Returns ``rates``
        *unchanged* (same object, no copy) when everyone is online, so the
        static path stays bit-identical and allocation-free."""
        if self._n_offline == 0:
            return rates
        return np.where(self._online, rates, 0.0)

    # ------------------------------------------------------------- transitions
    def drain(self, rates: np.ndarray, duration: float,
              t_start: float) -> tuple[np.ndarray, np.ndarray]:
        """Drain all sensors at ``rates`` for ``duration`` starting at
        ``t_start``; returns the *new* deaths as ``(sensors, times)``
        arrays with exact crossing times, stable-sorted by time (sensors
        dying at one instant stay in ascending index order).

        A sensor already at zero that keeps a positive rate is not reported
        again (its death was recorded when it first crossed).
        """
        if duration < 0:
            raise SimulationError(f"drain: negative duration {duration}")
        if duration == 0:
            return _NO_DEATHS
        r = np.asarray(rates, dtype=np.float64)
        if r.shape != (self.n,):
            raise SimulationError(f"drain: rates shape {r.shape} != ({self.n},)")
        after = self._energy - r * duration
        # A death is recorded whenever a not-currently-dead sensor ends the
        # interval strictly below zero. A sensor parked exactly at zero dies
        # at the *start* of the next draining interval (before/rate = 0), so
        # the knife-edge "charged exactly as it empties" stays alive while
        # "left at zero and kept draining" does not.
        below = after < self._death_floor
        deaths = _NO_DEATHS
        if below.any():
            idx = np.flatnonzero(below & ~self._currently_dead)
            if idx.size:
                times = t_start + self._energy[idx] / r[idx]
                order = np.argsort(times, kind="stable")
                self._ever_died[idx] = True
                self._currently_dead[idx] = True
                deaths = (idx[order], times[order])
        np.maximum(after, 0.0, out=self._energy)  # the ufunc np.clip(after, 0.0, None) runs
        return deaths

    def charge_full(self, sensors: Sequence[int] | np.ndarray) -> None:
        """Instantaneously restore the given sensors to full capacity
        (the paper's point-to-point charging model)."""
        if not isinstance(sensors, np.ndarray):
            sensors = list(sensors)
        idx = np.asarray(sensors, dtype=np.intp)
        if idx.size == 0:
            return
        if idx.min() < 0 or idx.max() >= self.n:
            raise SimulationError(f"charge_full: sensor ids out of range 0..{self.n - 1}")
        self._energy[idx] = self._batteries[idx]
        self._currently_dead[idx] = False


class ChargerFleet:
    """Per-charger availability for breakdown/repair scenarios.

    Parameters
    ----------
    q:
        Number of mobile chargers; all start available.

    The engine consults the fleet at every dispatch: a scheduling's tour for
    an unavailable charger is replaced by the stay-at-home tour (the plan is
    degraded, not rejected — the paper's cost model already prices empty
    tours at zero). All-available is the static case and costs one counter
    check per dispatch.
    """

    __slots__ = ("_available", "_n_down")

    def __init__(self, q: int) -> None:
        if q <= 0:
            raise SimulationError(f"ChargerFleet: need q >= 1 chargers, got {q}")
        self._available = np.ones(int(q), dtype=bool)
        self._n_down = 0

    @property
    def q(self) -> int:
        return self._available.shape[0]

    @property
    def available(self) -> np.ndarray:
        """Read-only availability mask (``True`` = operational)."""
        v = self._available.view()
        v.setflags(write=False)
        return v

    @property
    def all_available(self) -> bool:
        return self._n_down == 0

    def set_available(self, charger: int, available: bool) -> None:
        """Flip one charger's availability (breakdown or repair)."""
        l = int(charger)
        if not 0 <= l < self.q:
            raise SimulationError(f"set_available: charger {l} out of range 0..{self.q - 1}")
        if bool(self._available[l]) == bool(available):
            return
        self._available[l] = bool(available)
        self._n_down += -1 if available else 1
