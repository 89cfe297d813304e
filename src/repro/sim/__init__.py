"""Discrete-event network simulator.

Executes charging plans/policies against ground-truth energy trajectories:

* :mod:`~repro.sim.queue` — the heap-based :class:`EventQueue` with typed,
  totally-ordered events (time, priority class, sequence tie-break).
* :mod:`~repro.sim.sources` — pluggable event sources: slot boundaries,
  policy dispatch epochs, charger breakdown/repair, sensor churn and
  Poisson charging requests, bundled by :class:`ScenarioDynamics`.
* :mod:`~repro.sim.state` — per-sensor energy state with exact drain,
  death detection, full-charge operations and the churn membership mask,
  plus :class:`ChargerFleet` availability.
* :mod:`~repro.sim.workload` — ground-truth consumption-rate processes:
  fixed rates, per-slot resampling (the paper's variable-cycle model where
  ``tau_i(t)`` is constant within each slot ``ΔT``), and a bursty "storm"
  process for the examples.
* :mod:`~repro.sim.policies` — the :class:`ChargingPolicy` protocol plus
  :class:`PlannedPolicy` (execute an offline plan verbatim).
* :mod:`~repro.sim.engine` — the event loop: drain exactly to the next
  coincident batch, then fire it in priority order (slot boundary →
  failure/repair → churn → request → dispatch).
* :mod:`~repro.sim.events` / :mod:`~repro.sim.metrics` — the (optionally
  ring-bounded / JSONL-spilled) event log and the aggregate metrics
  (service cost, dispatches, deaths, per-charger distance).

Timescale assumptions follow the paper exactly: charging is instantaneous
and to full capacity; travel time is ignored; only travel *distance* is
costed. Static scenarios (no dynamic sources) reproduce the legacy slotted
loop bit-for-bit — ``repro check sim`` proves it.
"""

from repro.sim.engine import SimRuntime, SimulationHooks, SimulationResult, Simulator, simulate
from repro.sim.events import (
    ChargeEvent,
    ChurnEvent,
    DeathEvent,
    DispatchEvent,
    EventColumns,
    FleetEvent,
    RequestEvent,
)
from repro.sim.metrics import EventLog, EventSpill, Metrics
from repro.sim.policies import ChargingPolicy, PlannedPolicy, SimulationView
from repro.sim.queue import Event, EventQueue, coincident, time_tolerance
from repro.sim.sources import (
    ChargerFailureSource,
    ChurnSource,
    EventSource,
    PoissonRequestSource,
    PolicyDispatchSource,
    ScenarioDynamics,
    SlotBoundarySource,
)
from repro.sim.state import ChargerFleet, EnergyState
from repro.sim.workload import (
    FixedWorkload,
    ResampledWorkload,
    StormWorkload,
    TraceWorkload,
    Workload,
)

__all__ = [
    "ChargeEvent",
    "ChargerFailureSource",
    "ChargerFleet",
    "ChargingPolicy",
    "ChurnEvent",
    "ChurnSource",
    "DeathEvent",
    "DispatchEvent",
    "EnergyState",
    "Event",
    "EventColumns",
    "EventLog",
    "EventQueue",
    "EventSource",
    "EventSpill",
    "FixedWorkload",
    "FleetEvent",
    "Metrics",
    "PlannedPolicy",
    "PoissonRequestSource",
    "PolicyDispatchSource",
    "RequestEvent",
    "ResampledWorkload",
    "ScenarioDynamics",
    "SimRuntime",
    "SimulationHooks",
    "SimulationResult",
    "SimulationView",
    "Simulator",
    "SlotBoundarySource",
    "StormWorkload",
    "TraceWorkload",
    "Workload",
    "coincident",
    "simulate",
    "time_tolerance",
]
