"""The discrete-event simulation loop.

The engine owns three things: the clock, the exact energy integral
(piecewise-constant rates integrate in closed form — no per-tick error) and
one :class:`~repro.sim.queue.EventQueue`. Everything that *happens* —
slot boundaries, policy dispatches, charger breakdowns, sensor churn,
charging requests — is scheduled by an :class:`~repro.sim.sources.EventSource`;
the loop pops the next coincident batch, drains energy up to its instant,
and fires the batch in priority order:

1. **Horizon end** — the run is over; coincident events never fire.
2. **Slot boundary** — the workload's true rates change; the policy's
   ``observe`` hook fires with fresh monitored data.
3. **Charger failure/repair** — fleet availability flips.
4. **Sensor churn** — membership flips (offline sensors neither drain,
   die, nor accept charge).
5. **Charging request** — request bookkeeping, policy notification.
6. **Policy dispatch** — if the policy (re-)confirms it wants control now,
   it may return a charging scheduling, which is executed instantaneously:
   tours of unavailable chargers degrade to stay-at-home, every *online*
   visited sensor is restored to full, tour lengths accrue to the service
   cost, and events are logged.

The ordering matters: a policy reacting to any change at time ``t`` must
see that change applied before deciding whether to dispatch at ``t`` (this
is how the paper's greedy baseline avoids mid-slot deaths when slot
boundaries align with its decision epochs). Static runs — no extra sources,
everyone online — reproduce the legacy slotted loop bit-for-bit;
``repro check sim`` proves it differentially.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.schedule import ChargingScheduling
from repro.errors import SensorDeathError, SimulationError
from repro.network.model import SensorNetwork
from repro.obs.instrument import Instrumentation, ensure
from repro.obs.log import get_logger
from repro.sim.events import (
    ChargeEvent,
    ChurnEvent,
    DeathEvent,
    DispatchEvent,
    EventColumns,
    FleetEvent,
    RequestEvent,
)
from repro.sim.metrics import EventSpill, Metrics
from repro.sim.policies import ChargingPolicy, SimulationView
from repro.sim.queue import PRIORITY_HORIZON, EventQueue
from repro.sim.sources import EventSource, PolicyDispatchSource, SlotBoundarySource
from repro.sim.state import ChargerFleet, EnergyState
from repro.sim.workload import Workload
from repro.tsp.tour import Tour

__all__ = ["Simulator", "SimulationResult", "SimulationHooks", "SimRuntime", "simulate"]

log = get_logger(__name__)

#: Size at which a run's tour-set cache (:class:`_TourSet` entries) is
#: emptied. Offline plans share at most ``2^K`` tour sets, so they never
#: reach it; policies that build a fresh tour set per dispatch (greedy)
#: would otherwise grow it for the whole run.
_TOUR_SET_CACHE_LIMIT = 4096


class SimulationHooks:
    """Opt-in observer protocol for the engine's event loop.

    Subclass and override the callbacks you care about; the defaults are
    no-ops. The engine calls each hook *after* it has applied the
    corresponding state change, with live (non-copied) arrays — hooks must
    treat them as read-only. This is the attachment point for
    :mod:`repro.check`'s runtime invariant checker; keeping it an abstract
    observer (rather than importing the checker here) preserves the
    layering: ``sim`` knows nothing about ``check``.

    A hook that raises aborts the run — that is intentional, so an
    invariant checker can fail fast at the exact event that violated it.
    """

    def on_start(self, network: SensorNetwork, horizon: float,
                 energy: np.ndarray) -> None:
        """Called once before the event loop, with the initial energies."""

    def on_advance(self, t_from: float, t_to: float, rates: np.ndarray,
                   energy: np.ndarray) -> None:
        """Called after each exact drain over ``[t_from, t_to)``.

        ``rates`` are the *effective* rates of the interval (offline
        sensors zeroed); ``energy`` is the engine's post-drain state
        (clamped at zero for any sensor that died in the interval).
        """

    def on_death(self, sensor: int, time: float) -> None:
        """Called for each death event recorded during a drain."""

    def on_dispatch(self, time: float, scheduling: ChargingScheduling,
                    energy: np.ndarray) -> None:
        """Called after a scheduling executed (post-charge energies).

        ``scheduling`` is the *effective* one — tours of unavailable
        chargers already degraded to stay-at-home.
        """

    def on_fleet(self, charger: int, time: float, available: bool) -> None:
        """Called after a charger's availability flipped."""

    def on_churn(self, sensor: int, time: float, online: bool) -> None:
        """Called after a sensor's membership flipped."""

    def on_request(self, sensor: int, time: float) -> None:
        """Called after a charging-request arrival was recorded."""

    def on_finish(self, result: SimulationResult) -> None:
        """Called once with the final result before :meth:`Simulator.run` returns."""


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one run.

    Parameters
    ----------
    metrics:
        Aggregate metrics and the full event log.
    final_energy:
        ``(n,)`` energies at the horizon.
    horizon:
        The simulated period ``T``.
    """

    metrics: Metrics
    final_energy: np.ndarray
    horizon: float


class SimRuntime:
    """Mutable per-run context handed to event sources.

    Sources use it to schedule events, flip fleet/membership state, read
    policy views and execute schedulings; the engine uses it to drive the
    loop. One instance lives for exactly one :meth:`Simulator.run`.
    """

    __slots__ = ("network", "state", "fleet", "metrics", "queue", "policy",
                 "workload", "horizon", "now", "rates", "strict", "_obs",
                 "_hooks", "_sim", "tour_sets")

    def __init__(self, sim: "Simulator", policy: ChargingPolicy,
                 workload: Workload, horizon: float, metrics: Metrics) -> None:
        self._sim = sim
        self.network = sim.network
        self.state = EnergyState(sim.network.batteries)
        self.fleet = ChargerFleet(sim.network.q)
        self.metrics = metrics
        self.queue = EventQueue()
        self.policy = policy
        self.workload = workload
        self.horizon = float(horizon)
        self.now = 0.0
        self.rates = np.zeros(sim.network.n, dtype=np.float64)
        self.strict = sim.strict
        self._obs = sim._obs
        self._hooks = sim._hooks
        #: ``id(tours) -> _TourSet`` for the tour sets this run dispatched.
        self.tour_sets: dict[int, _TourSet] = {}

    # ------------------------------------------------------------ scheduling
    def schedule(self, time: float, priority: int, kind: str, *,
                 data: object = None, source: EventSource | None = None):
        """Schedule an event; sources' one-stop entry point."""
        return self.queue.push(time, priority, kind, data=data, source=source)

    # ----------------------------------------------------------- observation
    def view(self) -> SimulationView:
        """Fresh policy-facing snapshot at the current instant."""
        state = self.state
        rates = state.effective_rates(self.rates)
        alive = state.online.copy() if state.any_offline else None
        return SimulationView(time=self.now, energy=state.energy.copy(),
                              batteries=self.network.batteries,
                              observed_rates=rates.copy(), alive=alive)

    def observe_policy(self) -> None:
        self.policy.observe(self.view())

    def set_rates(self, rates: np.ndarray) -> None:
        """Install the new true rates (slot boundary)."""
        r = np.asarray(rates, dtype=np.float64)
        if r.shape != (self.network.n,):
            raise SimulationError(
                f"workload produced rates of shape {r.shape}, expected ({self.network.n},)")
        self.rates = r

    # -------------------------------------------------------- state mutation
    def set_charger_available(self, charger: int, available: bool) -> None:
        """Flip one charger's availability and log the fleet event."""
        self.fleet.set_available(charger, available)
        self.metrics.fleet.append(FleetEvent(time=self.now, charger=int(charger),
                                             available=bool(available)))
        if not available:
            self.metrics.breakdowns += 1
        log.debug("charger %d %s at t=%.6g", charger,
                  "repaired" if available else "down", self.now)
        if self._hooks is not None:
            self._hooks.on_fleet(int(charger), self.now, bool(available))

    def set_sensor_online(self, sensor: int, online: bool) -> None:
        """Flip one sensor's membership and log the churn event."""
        self.state.set_online(sensor, online)
        self.metrics.churn.append(ChurnEvent(time=self.now, sensor=int(sensor),
                                             online=bool(online)))
        log.debug("sensor %d %s at t=%.6g", sensor,
                  "rejoined" if online else "left", self.now)
        if self._hooks is not None:
            self._hooks.on_churn(int(sensor), self.now, bool(online))

    def record_request(self, sensor: int) -> None:
        """Log a charging-request arrival for ``sensor``."""
        self.metrics.requests.append(RequestEvent(
            time=self.now, sensor=int(sensor),
            energy=float(self.state.energy[sensor])))
        if self._hooks is not None:
            self._hooks.on_request(int(sensor), self.now)

    def execute(self, sched: ChargingScheduling) -> None:
        """Execute a charging scheduling now (fleet-aware)."""
        self._sim._execute(sched, self)


class Simulator:
    """Reusable engine binding a network to the event loop.

    Parameters
    ----------
    network:
        The WSN instance (geometry, batteries, distance matrix).
    strict:
        If true, the first sensor death raises
        :class:`~repro.errors.SensorDeathError`; otherwise deaths are
        recorded in the metrics and the run continues (dead sensors revive
        when charged — experiments report the death count).
    instrumentation:
        Optional :class:`~repro.obs.instrument.Instrumentation` context.
        Each :meth:`run` executes under a ``simulate`` span; every event
        batch counts toward ``sim.events``, each fired event toward
        ``sim.event.<kind>``, the live queue size feeds the
        ``sim.queue.depth`` series, and each executed scheduling records a
        ``dispatch`` span. ``None`` (the default) is a strict no-op.
    hooks:
        Optional :class:`SimulationHooks` observer receiving a callback at
        every state transition. ``None`` (the default) adds zero overhead.
    sources:
        Extra :class:`~repro.sim.sources.EventSource` instances (failures,
        churn, requests, ...). Slot boundaries and policy dispatches are
        always installed. Sources are re-primed per run, so reuse replays
        identical randomness.
    max_log_events:
        Bound each metrics event log to a ring of this many most-recent
        events (``None`` = keep everything). Counts stay exact either way.
    event_spill:
        Stream every event to this JSONL path (or an open
        :class:`~repro.sim.metrics.EventSpill`) as it is logged — the
        flat-memory companion to ``max_log_events``. A path is (re)opened
        per run and closed afterwards; an ``EventSpill`` object is left
        open for the caller.
    """

    def __init__(self, network: SensorNetwork, *, strict: bool = False,
                 instrumentation: Instrumentation | None = None,
                 hooks: SimulationHooks | None = None,
                 sources: tuple[EventSource, ...] = (),
                 max_log_events: int | None = None,
                 event_spill: EventSpill | str | Path | None = None) -> None:
        self.network = network
        self.strict = strict
        self._obs = ensure(instrumentation)
        self._hooks = hooks
        self._sources = tuple(sources)
        self._max_log_events = max_log_events
        self._event_spill = event_spill

    def run(self, policy: ChargingPolicy, workload: Workload,
            horizon: float) -> SimulationResult:
        """Simulate ``policy`` against ``workload`` over ``[0, horizon]``.

        Returns
        -------
        SimulationResult

        Raises
        ------
        SensorDeathError
            In strict mode, on the first death.
        SimulationError
            If the policy requests a dispatch time in the past.
        """
        if horizon <= 0 or not math.isfinite(horizon):
            raise SimulationError(f"horizon must be positive and finite, got {horizon}")
        spill, own_spill = self._open_spill()
        try:
            return self._run(policy, workload, float(horizon), spill)
        finally:
            if own_spill and spill is not None:
                spill.close()

    # ------------------------------------------------------------------ internals
    def _open_spill(self) -> tuple[EventSpill | None, bool]:
        if isinstance(self._event_spill, (str, Path)):
            return EventSpill(self._event_spill), True
        return self._event_spill, False

    def _run(self, policy: ChargingPolicy, workload: Workload, horizon: float,
             spill: EventSpill | None) -> SimulationResult:
        net = self.network
        metrics = Metrics.create(net.q, max_log_events=self._max_log_events,
                                 spill=spill)
        rt = SimRuntime(self, policy, workload, horizon, metrics)
        o = self._obs
        hooks = self._hooks
        with o.span("simulate", n=net.n, horizon=horizon) as sp:
            if hooks is not None:
                hooks.on_start(net, horizon, rt.state.energy)
            policy.reset(net, horizon)
            rt.set_rates(workload.rates_at(0))

            # Initial observation so online policies can plan from t=0 state.
            rt.observe_policy()

            rt.schedule(horizon, PRIORITY_HORIZON, "horizon")
            sources: tuple[EventSource, ...] = (
                SlotBoundarySource(workload), *self._sources,
                PolicyDispatchSource(policy))
            for src in sources:
                src.prime(rt)

            guard = 0
            max_iterations = 10_000_000
            while True:
                guard += 1
                o.incr("sim.events")
                if guard > max_iterations:
                    raise SimulationError("simulation exceeded iteration guard "
                                          "(policy likely returning non-advancing times)")
                for src in sources:
                    src.refresh(rt)
                o.observe("sim.queue.depth", float(len(rt.queue)))
                batch = rt.queue.pop_coincident()
                if not batch:
                    break  # unreachable while the horizon event is queued
                t_next = min(ev.time for ev in batch)

                # ---- drain exactly over [now, t_next)
                eff_rates = rt.state.effective_rates(rt.rates)
                dead, when = rt.state.drain(eff_rates, t_next - rt.now, rt.now)
                if hooks is not None:
                    hooks.on_advance(rt.now, t_next, eff_rates, rt.state.energy)
                if dead.size:
                    self._record_deaths(dead, when, metrics)
                rt.now = t_next

                # ---- fire the batch in (priority, seq) order; the horizon
                # event outranks everything, so coincident events never fire.
                if batch[0].priority == PRIORITY_HORIZON:
                    break
                for ev in batch:
                    o.incr(f"sim.event.{ev.kind}")
                    if ev.source is not None:
                        ev.source.fire(rt, ev)
            sp.set(events=guard, dispatches=metrics.n_dispatches,
                   deaths=metrics.n_deaths)
        result = SimulationResult(metrics=metrics,
                                  final_energy=rt.state.energy.copy(),
                                  horizon=horizon)
        if hooks is not None:
            hooks.on_finish(result)
        return result

    def _record_deaths(self, dead: np.ndarray, when: np.ndarray,
                       metrics: Metrics) -> None:
        """Log one drain interval's deaths (time-ordered) as one batch; a
        strict run logs only the first, then raises."""
        if self.strict:
            dead, when = dead[:1], when[:1]
        metrics.deaths.extend(EventColumns(DeathEvent, time=when, sensor=dead))
        hooks = self._hooks
        if hooks is None and not self.strict and not log.isEnabledFor(logging.DEBUG):
            return
        for sensor, t in zip(dead.tolist(), when.tolist()):
            log.debug("sensor %d died at t=%.6g", sensor, t)
            if hooks is not None:
                hooks.on_death(sensor, t)
            if self.strict:
                raise SensorDeathError(f"sensor {sensor} died at t={t:.6g}",
                                       sensor_id=sensor, time=t)

    def _effective_scheduling(self, sched: ChargingScheduling,
                              rt: SimRuntime) -> ChargingScheduling:
        """Degrade tours of unavailable chargers to stay-at-home."""
        if rt.fleet.all_available:
            return sched
        available = rt.fleet.available
        tours = tuple(
            tour if l >= rt.fleet.q or available[l] else Tour.empty(tour.depot)
            for l, tour in enumerate(sched.tours))
        return ChargingScheduling(time=sched.time, tours=tours)

    def _tour_set(self, tours: tuple[Tour, ...], rt: SimRuntime) -> "_TourSet":
        """The run's :class:`_TourSet` for ``tours``, built at first use."""
        entry = rt.tour_sets.get(id(tours))
        if entry is None:
            if len(rt.tour_sets) >= _TOUR_SET_CACHE_LIMIT:
                rt.tour_sets.clear()
            entry = rt.tour_sets[id(tours)] = _TourSet(tours, self.network.coordinates)
        return entry

    def _execute(self, sched: ChargingScheduling, rt: SimRuntime) -> None:
        net = self.network
        t = rt.now
        state = rt.state
        metrics = rt.metrics
        ts = self._tour_set(sched.tours, rt)
        if rt.fleet.all_available:
            sensors, costs, total, active = ts.sensors, ts.costs, ts.total, ts.active
        else:
            sensors, costs, total, active = ts.degraded(rt.fleet.available)
        # Validate before anything is mutated, offline sensors or not.
        if sensors.size and sensors[-1] >= net.n:
            bad = sensors[np.searchsorted(sensors, net.n)]
            raise SimulationError(f"scheduling charges non-sensor node {bad}")
        with self._obs.span("dispatch", time=float(t)) as sp:
            if state.any_offline:
                sensors = sensors[state.online[sensors]]
            if sensors.size:
                before = state.energy[sensors]
                gains = net.batteries[sensors] - before
                # Left to right, as a per-charge loop adds (np.sum is pairwise).
                metrics.energy_delivered = float(np.add.accumulate(
                    np.concatenate(([metrics.energy_delivered], gains)))[-1])
                metrics.charges.extend(EventColumns(
                    ChargeEvent, time=t, sensor=sensors, energy_before=before))
                state.charge_full(sensors)
            k = min(costs.size, metrics.per_charger.shape[0])
            metrics.per_charger[:k] += costs[:k]
            metrics.service_cost += total
            metrics.dispatches.append(DispatchEvent(
                time=t, cost=total, n_sensors=int(sensors.size),
                n_active_chargers=active))
            sp.set(cost=total, sensors=int(sensors.size), chargers=active)
        if self._hooks is not None:
            self._hooks.on_dispatch(t, self._effective_scheduling(sched, rt),
                                    state.energy)


class _TourSet:
    """What dispatching one tour set costs and charges, computed once per
    run (plans share their tour sets across dispatches).

    ``costs`` holds each tour's length and ``total`` their left-to-right
    sum, as a per-tour loop adds them; ``active`` counts the tours that
    leave their depot; ``sensors`` is the sorted, read-only array of the
    charged nodes (:attr:`ChargingScheduling.charged_sensors`: every node a
    tour visits, minus the set's depots). The entry holds ``tours``, so
    the set's ``id`` (the cache key) stays unique while the entry lives.
    """

    __slots__ = ("tours", "costs", "total", "active", "nonempty", "sensors", "_visits")

    def __init__(self, tours: tuple[Tour, ...], coords: np.ndarray) -> None:
        self.tours = tours
        self.costs = np.asarray([tour.cost(coords=coords) for tour in tours],
                                dtype=np.float64)
        self.total = _sum_left_to_right(self.costs)
        self.nonempty = np.asarray([not tour.is_empty for tour in tours], dtype=bool)
        self.active = int(np.count_nonzero(self.nonempty))
        nodes = set().union(*(tour.order for tour in tours))
        nodes.difference_update(tour.depot for tour in tours)
        self.sensors = np.asarray(sorted(nodes), dtype=np.intp)
        self.sensors.setflags(write=False)
        self._visits: np.ndarray | None = None

    def degraded(self, available: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, int]:
        """``(sensors, costs, total, active)`` with the tours of chargers
        that are not ``available`` replaced by stay-at-home tours (cost 0,
        no stops); tours beyond the fleet's size always run."""
        if self._visits is None:  # row l: which of ``sensors`` tour l visits
            column = {v: k for k, v in enumerate(self.sensors.tolist())}
            self._visits = np.zeros((len(self.tours), self.sensors.size), dtype=bool)
            for l, tour in enumerate(self.tours):
                self._visits[l, [column[v] for v in tour.order if v in column]] = True
        up = np.ones(self.costs.size, dtype=bool)
        k = min(up.size, available.size)
        up[:k] = available[:k]
        costs = np.where(up, self.costs, 0.0)
        return (self.sensors[self._visits[up].any(axis=0)], costs,
                _sum_left_to_right(costs), int(np.count_nonzero(up & self.nonempty)))


def _sum_left_to_right(values: np.ndarray) -> float:
    total = 0.0
    for v in values.tolist():
        total += v
    return total


def simulate(network: SensorNetwork, policy: ChargingPolicy, workload: Workload,
             horizon: float, *, strict: bool = False,
             instrumentation: Instrumentation | None = None,
             hooks: SimulationHooks | None = None,
             sources: tuple[EventSource, ...] = (),
             max_log_events: int | None = None,
             event_spill: EventSpill | str | Path | None = None) -> SimulationResult:
    """One-call wrapper: ``Simulator(network, ...).run(...)``."""
    return Simulator(network, strict=strict, instrumentation=instrumentation,
                     hooks=hooks, sources=sources, max_log_events=max_log_events,
                     event_spill=event_spill).run(policy, workload, horizon)
