"""The pre-event-queue slotted simulation loop, kept as a reference.

This is a faithful port of the engine's original hand-rolled loop — the
``min(next boundary, next dispatch, horizon)`` stepper that predated
:mod:`repro.sim.queue` — retained *only* so the differential harness can
prove the event-queue core replays every slotted scenario event-for-event
identically (``repro check sim`` and the ``engine`` check in
:mod:`repro.check.differential`). It supports exactly what the old engine
supported: static topology, always-available chargers, slot boundaries and
policy dispatches. Do not grow it; new behaviour belongs in
:mod:`repro.sim.engine`.

The one deliberate deviation from the seed code: coincidence tests use the
relative-or-absolute :func:`repro.sim.queue.time_tolerance` (the absolute
``1e-9`` was below one float64 ulp for ``t >= 1e7``), so the differential
isolates the control-flow change rather than the tolerance fix.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.schedule import ChargingScheduling
from repro.errors import SensorDeathError, SimulationError
from repro.geometry.distance import distance_matrix
from repro.network.model import SensorNetwork
from repro.sim.engine import SimulationResult
from repro.sim.events import ChargeEvent, DeathEvent, DispatchEvent
from repro.sim.metrics import Metrics
from repro.sim.policies import ChargingPolicy, SimulationView
from repro.sim.queue import time_tolerance
from repro.sim.state import EnergyState
from repro.sim.workload import Workload

__all__ = ["simulate_legacy"]


def _view(net: SensorNetwork, t: float, state: EnergyState,
          rates: np.ndarray) -> SimulationView:
    return SimulationView(time=t, energy=state.energy.copy(),
                          batteries=net.batteries,
                          observed_rates=rates.copy())


def _execute(net: SensorNetwork, dist: np.ndarray, sched: ChargingScheduling,
             t: float, state: EnergyState, metrics: Metrics) -> None:
    total = 0.0
    active = 0
    for l, tour in enumerate(sched.tours):
        c = tour.cost(dist)
        total += c
        if not tour.is_empty:
            active += 1
        if l < metrics.per_charger.shape[0]:
            metrics.per_charger[l] += c
    sensors = sorted(sched.charged_sensors)
    for s in sensors:
        if s >= net.n:
            raise SimulationError(f"scheduling charges non-sensor node {s}")
        before = float(state.energy[s])
        metrics.charges.append(ChargeEvent(time=t, sensor=s, energy_before=before))
        metrics.energy_delivered += float(net.batteries[s]) - before
    state.charge_full(sensors)
    metrics.service_cost += total
    metrics.dispatches.append(DispatchEvent(
        time=t, cost=total, n_sensors=len(sensors), n_active_chargers=active))


def simulate_legacy(network: SensorNetwork, policy: ChargingPolicy,
                    workload: Workload, horizon: float, *,
                    strict: bool = False) -> SimulationResult:
    """Run the original slotted loop; same result type as the real engine."""
    if horizon <= 0 or not math.isfinite(horizon):
        raise SimulationError(f"horizon must be positive and finite, got {horizon}")
    net = network
    dist = distance_matrix(net.coordinates)
    state = EnergyState(net.batteries)
    metrics = Metrics(q=net.q)
    policy.reset(net, horizon)

    slot_len = workload.slot_duration
    slot = 0
    rates = np.asarray(workload.rates_at(0), dtype=np.float64)
    if rates.shape != (net.n,):
        raise SimulationError(
            f"workload produced rates of shape {rates.shape}, expected ({net.n},)")

    policy.observe(_view(net, 0.0, state, rates))

    t = 0.0
    guard = 0
    max_iterations = 10_000_000
    while t < horizon - time_tolerance(horizon):
        guard += 1
        if guard > max_iterations:
            raise SimulationError("simulation exceeded iteration guard "
                                  "(policy likely returning non-advancing times)")
        tol = time_tolerance(t)
        t_boundary = (slot + 1) * slot_len if math.isfinite(slot_len) else math.inf
        t_policy_raw = policy.next_dispatch_time(t)
        t_policy = math.inf if t_policy_raw is None else float(t_policy_raw)
        if t_policy < t - tol:
            raise SimulationError(
                f"policy requested dispatch at {t_policy} < current time {t}")
        t_next = min(horizon, t_boundary, max(t_policy, t))

        dead, times = state.drain(rates, t_next - t, t)
        for sensor, when in zip(dead.tolist(), times.tolist()):
            metrics.deaths.append(DeathEvent(time=when, sensor=sensor))
            if strict:
                raise SensorDeathError(
                    f"sensor {sensor} died at t={when:.6g}", sensor_id=sensor,
                    time=when)
        t = t_next
        if t >= horizon - time_tolerance(horizon):
            break
        tol = time_tolerance(t)

        if abs(t - t_boundary) <= tol:
            slot += 1
            rates = np.asarray(workload.rates_at(slot), dtype=np.float64)
            policy.observe(_view(net, t, state, rates))
            # The observation may have changed the next dispatch time; loop
            # around rather than acting on a stale t_policy.
            if not (abs(t - t_policy) <= tol):
                continue
            t_policy_raw = policy.next_dispatch_time(t)
            t_policy = math.inf if t_policy_raw is None else float(t_policy_raw)

        if abs(t - t_policy) <= tol:
            sched = policy.dispatch(_view(net, t, state, rates))
            if sched is not None:
                _execute(net, dist, sched, t, state, metrics)

    return SimulationResult(metrics=metrics, final_energy=state.energy.copy(),
                            horizon=horizon)
