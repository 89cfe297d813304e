"""Runtime invariant checking for the simulation engine.

:class:`InvariantChecker` is a :class:`~repro.sim.engine.SimulationHooks`
observer that re-derives the engine's state transitions independently and
compares at every event. It maintains a *shadow* energy vector integrated
with the same closed-form arithmetic the engine uses, so any divergence —
a skipped drain, a mis-clamped death, a phantom charge — surfaces at the
exact event that introduced it.

Checked invariants:

* **monotone time** — intervals advance contiguously; dispatch and death
  times fall inside the interval that produced them.
* **energy accounting** — the engine's post-drain energies equal the
  shadow integral (clamped at zero), for every sensor, at every event.
* **death completeness** — a sensor whose shadow energy crosses below the
  death tolerance has a recorded death event, and no death is recorded
  for a sensor that did not cross.
* **full-charge semantics** — after a dispatch, every charged *online*
  sensor sits exactly at battery capacity; non-charged sensors are
  untouched.
* **tour structure** — each scheduling carries one tour per charger,
  anchored at that charger's depot, charging only real sensors.
* **fleet availability** — a charger reported broken down must run only
  stay-at-home tours until its repair event (the engine hands hooks the
  *effective* scheduling, so a non-empty tour on a downed charger is an
  engine bug).
* **membership** — offline (churned-out) sensors must not drain (their
  effective rate is zero) and must not be charged.
* **service cost** — the metrics' accumulated cost equals the sum of tour
  costs this checker measured, and matches
  :meth:`repro.core.schedule.SchedulePlan.total_cost` over the observed
  plan.

Violations are collected on :attr:`InvariantChecker.violations`; by
default the first one also raises :class:`~repro.errors.CheckError`, so a
strict run aborts at the violating event with the full context in hand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.schedule import ChargingScheduling, SchedulePlan
from repro.errors import CheckError, ScheduleError
from repro.network.model import SensorNetwork
from repro.obs.instrument import Instrumentation, ensure
from repro.sim.engine import SimulationHooks, SimulationResult

__all__ = ["InvariantViolation", "InvariantChecker"]

#: Matching absolute slack for shadow-vs-engine energy comparisons,
#: battery-relative. The shadow repeats the engine's own vectorised
#: arithmetic, so divergence beyond a few ulps is a real bug.
_ENERGY_REL_TOL = 1e-9

#: Death tolerance, battery-relative — mirrors ``repro.sim.state._REL_TOL``
#: (the knife-edge "charged exactly at zero" stays alive).
_DEATH_REL_TOL = 1e-6

#: Slack for time comparisons — mirrors the relative-or-absolute
#: :func:`repro.sim.queue.time_tolerance` (scaled by ``max(1, |t|)`` at
#: every use site).
_TIME_TOL = 1e-9

#: Relative slack for cost totals (sums of many tour lengths).
_COST_REL_TOL = 1e-9


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant.

    Parameters
    ----------
    invariant:
        Machine-readable name (``"energy"``, ``"full_charge"``, ...).
    time:
        Simulation time of the violating event.
    message:
        Human-readable description with the offending values.
    """

    invariant: str
    time: float
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant} @ t={self.time:.6g}] {self.message}"


class InvariantChecker(SimulationHooks):
    """Shadow-integrating invariant observer (see the module docstring).

    Parameters
    ----------
    network:
        The simulated network (for batteries, distances, depot layout).
    raise_on_violation:
        If true (default), the first violation raises
        :class:`~repro.errors.CheckError` at the offending event. If
        false, violations accumulate and the run continues — the fuzzer's
        mode, which wants *all* of them for the report.
    obs:
        Optional instrumentation; every violation bumps
        ``check.invariant.violations`` and each completed run bumps
        ``check.invariant.runs``.
    """

    def __init__(self, network: SensorNetwork, *,
                 raise_on_violation: bool = True,
                 obs: Instrumentation | None = None) -> None:
        self.network = network
        self.raise_on_violation = raise_on_violation
        self.violations: list[InvariantViolation] = []
        self._obs = ensure(obs)
        self._shadow: np.ndarray | None = None
        self._dead: np.ndarray | None = None
        self._t = 0.0
        self._horizon = 0.0
        # Deaths the shadow integral predicts for the interval just
        # advanced; the engine must report exactly these before the next
        # advance/dispatch. Maps sensor -> predicted crossing time.
        self._expected_deaths: dict[int, float] = {}
        self._reported_deaths: list[tuple[int, float]] = []
        self._schedulings: list[ChargingScheduling] = []
        self._expected_cost = 0.0
        # Dynamic-scenario mirrors, driven by on_fleet / on_churn.
        self._online = network.membership_mask()
        self._available = np.ones(network.q, dtype=bool)

    # -------------------------------------------------------------- plumbing
    def _fail(self, invariant: str, time: float, message: str) -> None:
        violation = InvariantViolation(invariant=invariant, time=time,
                                       message=message)
        self.violations.append(violation)
        self._obs.incr("check.invariant.violations")
        self._obs.incr(f"check.invariant.violations.{invariant}")
        if self.raise_on_violation:
            raise CheckError(str(violation), invariant=invariant)

    def _flush_expected_deaths(self, time: float) -> None:
        """Any death predicted by the last drain must have been reported."""
        if self._expected_deaths:
            missing = dict(self._expected_deaths)
            self._expected_deaths.clear()
            self._fail("death", time,
                       f"shadow energy of sensor(s) {sorted(missing)} crossed "
                       f"below zero but the engine recorded no death event")

    # ----------------------------------------------------------------- hooks
    def on_start(self, network: SensorNetwork, horizon: float,
                 energy: np.ndarray) -> None:
        self._shadow = self.network.batteries.astype(np.float64).copy()
        self._dead = np.zeros(self.network.n, dtype=bool)
        self._online = self.network.membership_mask()
        self._available = np.ones(self.network.q, dtype=bool)
        self._t = 0.0
        self._horizon = float(horizon)
        if not np.array_equal(energy, self._shadow):
            self._fail("energy", 0.0,
                       "initial energies differ from battery capacities")

    def on_advance(self, t_from: float, t_to: float, rates: np.ndarray,
                   energy: np.ndarray) -> None:
        assert self._shadow is not None and self._dead is not None
        self._flush_expected_deaths(t_from)
        tol_t = _TIME_TOL * max(1.0, abs(t_from))
        if abs(t_from - self._t) > tol_t:
            self._fail("time", t_from,
                       f"interval starts at {t_from!r} but the previous event "
                       f"ended at {self._t!r} (non-contiguous timeline)")
        if t_to < t_from - _TIME_TOL:
            self._fail("time", t_to,
                       f"interval runs backwards: [{t_from!r}, {t_to!r}]")

        duration = t_to - t_from
        r = np.asarray(rates, dtype=np.float64)
        if not np.all(self._online) and np.any(r[~self._online] != 0.0):
            bad = int(np.nonzero(~self._online & (r != 0.0))[0][0])
            self._fail("membership", t_from,
                       f"offline sensor {bad} drains at rate {float(r[bad])!r} "
                       f"(effective rates must zero churned-out sensors)")
        before = self._shadow.copy()
        # Mirror EnergyState.drain exactly: subtract, detect crossings of
        # not-currently-dead sensors past the death tolerance, clamp.
        self._shadow -= r * max(duration, 0.0)
        batteries = self.network.batteries
        crossing = ~self._dead & (self._shadow < -batteries * _DEATH_REL_TOL)
        for i in np.nonzero(crossing)[0]:
            self._expected_deaths[int(i)] = float(t_from + before[i] / r[i])
            self._dead[i] = True
        np.clip(self._shadow, 0.0, None, out=self._shadow)
        self._t = t_to

        slack = np.maximum(batteries * _ENERGY_REL_TOL, 1e-300)
        diff = np.abs(np.asarray(energy, dtype=np.float64) - self._shadow)
        if np.any(diff > slack):
            worst = int(np.argmax(diff - slack))
            self._fail("energy", t_to,
                       f"engine energy of sensor {worst} is "
                       f"{float(energy[worst])!r}, shadow integral says "
                       f"{float(self._shadow[worst])!r} "
                       f"(diff {float(diff[worst]):.3e})")

    def on_death(self, sensor: int, time: float) -> None:
        self._reported_deaths.append((int(sensor), float(time)))
        expected = self._expected_deaths.pop(int(sensor), None)
        if expected is None:
            self._fail("death", time,
                       f"engine reported sensor {sensor} dead at t={time!r} "
                       f"but its shadow energy never crossed zero there")
            return
        tol = _TIME_TOL * max(1.0, abs(expected))
        if abs(time - expected) > max(tol, 1e-6 * max(1.0, self._horizon)):
            self._fail("death", time,
                       f"sensor {sensor} death reported at t={time!r}, shadow "
                       f"crossing time is {expected!r}")

    def on_dispatch(self, time: float, scheduling: ChargingScheduling,
                    energy: np.ndarray) -> None:
        assert self._shadow is not None and self._dead is not None
        self._flush_expected_deaths(time)
        net = self.network
        tol_t = _TIME_TOL * max(1.0, abs(time))
        if abs(time - self._t) > tol_t:
            self._fail("time", time,
                       f"dispatch at t={time!r} but the last drain ended at "
                       f"t={self._t!r}")

        # ---- tour structure: one tour per charger, each on its own depot
        depots = [int(i) for i in net.depot_indices]
        tours = scheduling.tours
        if len(tours) != len(depots):
            self._fail("tours", time,
                       f"scheduling has {len(tours)} tours for {len(depots)} "
                       f"chargers")
        for l, tour in enumerate(tours):
            if l < len(depots) and tour.depot != depots[l]:
                self._fail("tours", time,
                           f"tour {l} anchors at node {tour.depot}, charger "
                           f"{l}'s depot is node {depots[l]}")
            if tour.order[0] != tour.depot:
                self._fail("tours", time,
                           f"tour {l} does not start at its depot")
            bad = [s for s in tour.stops() if not (0 <= s < net.n)]
            if bad:
                self._fail("tours", time,
                           f"tour {l} visits non-sensor node(s) {bad}")
            if l < len(self._available) and not self._available[l] \
                    and not tour.is_empty:
                self._fail("fleet", time,
                           f"charger {l} is broken down but runs a "
                           f"{tour.n_stops}-stop tour (must stay at home "
                           f"until repaired)")

        # ---- full-charge semantics (offline sensors are never charged)
        charged = sorted(s for s in scheduling.charged_sensors
                         if self._online[s])
        batteries = net.batteries
        e = np.asarray(energy, dtype=np.float64)
        for s in charged:
            if abs(e[s] - batteries[s]) > batteries[s] * _ENERGY_REL_TOL:
                self._fail("full_charge", time,
                           f"sensor {s} holds {float(e[s])!r} after being "
                           f"charged; battery capacity is {float(batteries[s])!r}")
        self._shadow[charged] = batteries[charged]
        self._dead[charged] = False
        slack = np.maximum(batteries * _ENERGY_REL_TOL, 1e-300)
        diff = np.abs(e - self._shadow)
        if np.any(diff > slack):
            worst = int(np.argmax(diff - slack))
            self._fail("full_charge", time,
                       f"dispatch changed un-charged sensor {worst}: engine "
                       f"says {float(e[worst])!r}, shadow says "
                       f"{float(self._shadow[worst])!r}")

        self._expected_cost += sum(t.cost(coords=net.coordinates) for t in tours)
        self._schedulings.append(scheduling)

    def on_fleet(self, charger: int, time: float, available: bool) -> None:
        l = int(charger)
        if not 0 <= l < len(self._available):
            self._fail("fleet", time,
                       f"fleet event for charger {l}, fleet size is "
                       f"{len(self._available)}")
            return
        if bool(self._available[l]) == bool(available):
            self._fail("fleet", time,
                       f"charger {l} reported {'repaired' if available else 'down'} "
                       f"but it already was (duplicate fleet event)")
        self._available[l] = bool(available)

    def on_churn(self, sensor: int, time: float, online: bool) -> None:
        s = int(sensor)
        if not 0 <= s < self.network.n:
            self._fail("membership", time,
                       f"churn event for non-sensor {s} (n={self.network.n})")
            return
        if bool(self._online[s]) == bool(online):
            self._fail("membership", time,
                       f"sensor {s} reported {'rejoined' if online else 'left'} "
                       f"but it already had (duplicate churn event)")
        self._online[s] = bool(online)

    def on_finish(self, result: SimulationResult) -> None:
        self._flush_expected_deaths(self._horizon)
        self._obs.incr("check.invariant.runs")
        m = result.metrics

        cost_slack = _COST_REL_TOL * max(1.0, self._expected_cost)
        if abs(m.service_cost - self._expected_cost) > cost_slack:
            self._fail("cost", self._horizon,
                       f"metrics report service cost {m.service_cost!r}; the "
                       f"observed tours sum to {self._expected_cost!r}")

        # Cross-check against the plan's own costing over the observed
        # dispatches. Only possible when the dispatch times form a legal
        # SchedulePlan (distinct, within the horizon) — always true for the
        # planned policies this harness drives.
        if self._schedulings:
            try:
                plan = SchedulePlan.from_schedulings(self._schedulings, self._horizon)
            except ScheduleError:
                plan = None
            if plan is not None:
                via_plan = plan.total_cost(coords=self.network.coordinates)
                if abs(via_plan - m.service_cost) > cost_slack:
                    self._fail(
                        "cost", self._horizon,
                        f"SchedulePlan.total_cost computes {via_plan!r} for "
                        f"the observed plan; metrics say {m.service_cost!r}")

        reported = {s for s, _ in self._reported_deaths}
        recorded = {d.sensor for d in m.deaths}
        if reported != recorded:
            self._fail("death", self._horizon,
                       f"death events seen via hooks {sorted(reported)} differ "
                       f"from the metrics' record {sorted(recorded)}")

    # --------------------------------------------------------------- reading
    @property
    def observed_plan_cost(self) -> float:
        """Sum of tour costs over every dispatched scheduling."""
        return self._expected_cost

    def summary(self) -> str:
        if not self.violations:
            return "invariants: all hold"
        lines = [f"invariants: {len(self.violations)} violation(s)"]
        lines += [f"  - {v}" for v in self.violations]
        return "\n".join(lines)
