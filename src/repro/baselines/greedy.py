"""The paper's greedy on-demand baseline.

Section VII.A: "each sensor sends a charging request to the base station
when it will deplete its energy soon. Once receiving a request, the base
station commands the q mobile chargers to charge those sensors whose
estimated residual lifetimes are less than a given threshold ``Δl``", with
``Δl = tau_min`` in all experiments.

Concretely, this policy checks residual lifetimes at decision epochs spaced
``decision_interval`` apart (default ``Δl``) and dispatches the q-rooted
TSP 2-approximation over the requesting set whenever it is non-empty. With
``decision_interval <= Δl`` and rate changes aligned to epochs (the paper's
slotted model guarantees both), no sensor can slip through: anything whose
lifetime is about to end shows up under the threshold at the preceding
epoch.

The greedy is *locally* cheap — each sensor is charged as late and as
rarely as possible — but globally wasteful: it ignores the opportunity to
piggyback nearby longer-cycle sensors onto tours it is already paying for,
which is exactly the behaviour MinTotalDistance's class merging exploits.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.schedule import ChargingScheduling
from repro.errors import ConfigError
from repro.network.model import SensorNetwork
from repro.rooted.qtsp import q_rooted_tsp
from repro.sim.policies import SimulationView

__all__ = ["GreedyOnDemandPolicy"]


class GreedyOnDemandPolicy:
    """Threshold-triggered on-demand charging (the paper's Greedy).

    Parameters
    ----------
    threshold:
        ``Δl``: a sensor requests charging when its estimated residual
        lifetime is ``<= threshold``. ``None`` (default) resolves to the
        network's ``tau_min`` at reset, matching the paper.
    decision_interval:
        Spacing of decision epochs; ``None`` resolves to ``threshold``.
        Must be ``<= threshold`` for the no-death argument to hold.
    refine:
        Forward 2-opt refinement to the tour construction.
    """

    def __init__(self, *, threshold: float | None = None,
                 decision_interval: float | None = None,
                 refine: bool = False) -> None:
        if threshold is not None and threshold <= 0:
            raise ConfigError(f"threshold must be positive, got {threshold}")
        if decision_interval is not None and decision_interval <= 0:
            raise ConfigError(
                f"decision_interval must be positive, got {decision_interval}")
        self._threshold_arg = threshold
        self._interval_arg = decision_interval
        self.refine = refine
        self._net: SensorNetwork | None = None
        self._horizon = math.inf
        self.threshold = math.nan
        self.interval = math.nan
        self._epoch = 0

    # ----------------------------------------------------------- policy API
    def reset(self, network: SensorNetwork, horizon: float) -> None:
        self._net = network
        self._horizon = horizon
        self.threshold = (self._threshold_arg if self._threshold_arg is not None
                          else network.tau_min)
        self.interval = (self._interval_arg if self._interval_arg is not None
                         else self.threshold)
        if self.interval > self.threshold * (1 + 1e-12):
            raise ConfigError(
                f"decision_interval {self.interval} must not exceed "
                f"threshold {self.threshold} (sensors could die between epochs)")
        self._epoch = 1

    def next_dispatch_time(self, now: float) -> float | None:
        t = self._epoch * self.interval
        while t < now - 1e-12:
            self._epoch += 1
            t = self._epoch * self.interval
        return t if t < self._horizon else None

    def observe(self, view: SimulationView) -> None:
        return None  # greedy keeps no cross-slot state: it reacts per epoch

    def dispatch(self, view: SimulationView) -> ChargingScheduling | None:
        assert self._net is not None, "dispatch before reset"
        self._epoch += 1
        lifetimes = view.residual_lifetimes
        due = np.nonzero(lifetimes <= self.threshold * (1 + 1e-12))[0]
        if due.size == 0:
            return None
        tours = q_rooted_tsp(None, [int(s) for s in due],
                             [int(i) for i in self._net.depot_indices],
                             refine=self.refine, coords=self._net.coordinates)
        return ChargingScheduling(time=view.time, tours=tuple(tours))
