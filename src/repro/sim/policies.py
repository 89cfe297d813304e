"""Charging policies: how the base station decides when/whom to charge.

The simulator drives any object implementing :class:`ChargingPolicy`:

* ``reset`` — called once before the run.
* ``next_dispatch_time`` — the next instant the policy wants control
  (``None`` = never again). The engine guarantees a callback then.
* ``observe`` — called at every workload slot boundary, after the true
  rates changed, with a :class:`SimulationView`. This is where adaptive
  policies ingest "monitored" energy information (the paper's sensors
  report residual energy and measured consumption rate to the base
  station).
* ``dispatch`` — called when simulation time reaches
  ``next_dispatch_time``; returns the scheduling to execute now (or
  ``None`` for "nothing after all").

:class:`PlannedPolicy` wraps an offline :class:`~repro.core.schedule.SchedulePlan`
(Algorithm 3's output) as a policy, which lets the experiment harness run
offline and online algorithms through the identical pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.schedule import ChargingScheduling, SchedulePlan
from repro.network.model import SensorNetwork

__all__ = ["SimulationView", "ChargingPolicy", "PlannedPolicy"]


@dataclass(frozen=True)
class SimulationView:
    """Read-only snapshot handed to policies.

    Parameters
    ----------
    time:
        Current simulation time.
    energy:
        ``(n,)`` current residual energies (sensors report these exactly).
    batteries:
        ``(n,)`` capacities.
    observed_rates:
        ``(n,)`` the rates sensors currently measure — the true rates of the
        *current* slot (monitoring is accurate within a slot; prediction
        across slots is the policy's problem). Offline sensors read 0.
    alive:
        ``(n,)`` boolean membership mask for churn scenarios, or ``None``
        (the static default) meaning everyone is online. Use
        :attr:`alive_mask` for a mask that is always materialised.
    """

    time: float
    energy: np.ndarray
    batteries: np.ndarray
    observed_rates: np.ndarray
    alive: np.ndarray | None = None

    @property
    def alive_mask(self) -> np.ndarray:
        """The membership mask, materialised (all-True when static)."""
        if self.alive is None:
            return np.ones(self.batteries.shape[0], dtype=bool)
        return self.alive

    @property
    def observed_cycles(self) -> np.ndarray:
        """Cycles implied by the observed rates, ``tau_i(t) = B_i / rho_i(t)``."""
        return np.divide(self.batteries, self.observed_rates,
                         out=np.full(self.batteries.shape, np.inf),
                         where=self.observed_rates > 0)

    @property
    def residual_lifetimes(self) -> np.ndarray:
        """Time each sensor survives at the observed rates."""
        return np.divide(self.energy, self.observed_rates,
                         out=np.full(self.energy.shape, np.inf),
                         where=self.observed_rates > 0)


@runtime_checkable
class ChargingPolicy(Protocol):
    """The protocol the simulator drives (see module docstring)."""

    def reset(self, network: SensorNetwork, horizon: float) -> None:
        ...

    def next_dispatch_time(self, now: float) -> float | None:
        ...

    def observe(self, view: SimulationView) -> None:
        ...

    def dispatch(self, view: SimulationView) -> ChargingScheduling | None:
        ...


class PlannedPolicy:
    """Execute a precomputed plan verbatim (offline algorithms).

    Parameters
    ----------
    plan:
        The offline plan; its schedulings are dispatched at exactly their
        recorded times, regardless of anything the simulation observes.
        (``mtd-var`` reuses this cursor and swaps in a new plan per re-plan.)
    """

    def __init__(self, plan: SchedulePlan) -> None:
        self._plan = plan
        self._cursor = 0

    @property
    def plan(self) -> SchedulePlan:
        return self._plan

    def reset(self, network: SensorNetwork, horizon: float) -> None:
        self._cursor = 0

    def next_dispatch_time(self, now: float) -> float | None:
        times = self._plan.times
        # Skip anything strictly in the past (robustness to re-entry).
        while self._cursor < times.shape[0] and times[self._cursor] < now - 1e-12:
            self._cursor += 1
        if self._cursor >= times.shape[0]:
            return None
        return float(times[self._cursor])

    def observe(self, view: SimulationView) -> None:  # offline: ignores it
        return None

    def dispatch(self, view: SimulationView) -> ChargingScheduling | None:
        if self._cursor >= len(self._plan):
            return None
        sched = self._plan[self._cursor]
        self._cursor += 1
        return sched
