"""The charge-everything strawman.

The paper's Section III.C observes that "a naive strategy of charging all
sensors per round will significantly increase the service cost". This policy
implements that strategy — whenever *any* sensor's residual lifetime falls
under the threshold, all ``n`` sensors are charged — so the claim can be
measured rather than asserted (see ``benchmarks/bench_baselines.py``).
"""

from __future__ import annotations

import math


from repro.core.schedule import ChargingScheduling
from repro.errors import ConfigError
from repro.network.model import SensorNetwork
from repro.rooted.qtsp import q_rooted_tsp
from repro.sim.policies import SimulationView
from repro.tsp.tour import Tour

__all__ = ["NaiveChargeAllPolicy"]


class NaiveChargeAllPolicy:
    """Charge the whole network whenever anyone runs low.

    Parameters
    ----------
    threshold:
        Trigger threshold on minimum residual lifetime (``None`` resolves to
        the network's ``tau_min``).
    decision_interval:
        Epoch spacing (``None`` resolves to the threshold).

    The all-sensor q-rooted tours are computed once per reset and reused —
    the to-be-charged set is always the same, so the geometry never changes.
    """

    def __init__(self, *, threshold: float | None = None,
                 decision_interval: float | None = None) -> None:
        if threshold is not None and threshold <= 0:
            raise ConfigError(f"threshold must be positive, got {threshold}")
        if decision_interval is not None and decision_interval <= 0:
            raise ConfigError(
                f"decision_interval must be positive, got {decision_interval}")
        self._threshold_arg = threshold
        self._interval_arg = decision_interval
        self._net: SensorNetwork | None = None
        self._horizon = math.inf
        self.threshold = math.nan
        self.interval = math.nan
        self._epoch = 0
        self._tours: tuple[Tour, ...] = ()

    def reset(self, network: SensorNetwork, horizon: float) -> None:
        self._net = network
        self._horizon = horizon
        self.threshold = (self._threshold_arg if self._threshold_arg is not None
                          else network.tau_min)
        self.interval = (self._interval_arg if self._interval_arg is not None
                         else self.threshold)
        self._epoch = 1
        self._tours = tuple(q_rooted_tsp(
            None, [int(i) for i in network.sensor_indices],
            [int(i) for i in network.depot_indices], coords=network.coordinates))

    def next_dispatch_time(self, now: float) -> float | None:
        t = self._epoch * self.interval
        while t < now - 1e-12:
            self._epoch += 1
            t = self._epoch * self.interval
        return t if t < self._horizon else None

    def observe(self, view: SimulationView) -> None:
        return None

    def dispatch(self, view: SimulationView) -> ChargingScheduling | None:
        self._epoch += 1
        if float(view.residual_lifetimes.min()) > self.threshold * (1 + 1e-12):
            return None
        return ChargingScheduling(time=view.time, tours=self._tours)
