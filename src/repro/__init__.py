"""repro — Perpetual sensor networks via multiple mobile wireless chargers.

A from-scratch reproduction of

    W. Xu, W. Liang, X. Lin, G. Mao, X. Ren,
    "Towards Perpetual Sensor Networks via Deploying Multiple Mobile
    Wireless Chargers", ICPP 2014.

The library implements the paper's full stack:

* the exact **q-rooted minimum spanning forest** (Algorithm 1) and the
  2-approximate **q-rooted TSP** (Algorithm 2) — :mod:`repro.rooted`;
* the ``2(K+2)``-approximate **MinTotalDistance** scheduler for fixed
  maximum charging cycles (Algorithm 3) — :mod:`repro.core`;
* the adaptive **MinTotalDistance-var** heuristic for variable cycles
  (Section VI) — :mod:`repro.adaptive`;
* the **greedy on-demand** comparator and extra baselines —
  :mod:`repro.baselines`;
* a WSN model, deployment and charging-cycle distributions —
  :mod:`repro.network`;
* an exact event-driven **simulator** — :mod:`repro.sim`;
* the full experiment harness reproducing every figure of the paper's
  evaluation — :mod:`repro.experiments` (CLI: ``repro run fig1a``);
* opt-in instrumentation — counters, wall-clock spans, JSONL traces —
  threaded through every layer above — :mod:`repro.obs`
  (CLI: ``repro --profile ...``; see docs/OBSERVABILITY.md).

Quickstart
----------
>>> from repro import build_paper_network, min_total_distance
>>> net = build_paper_network(n=100, q=5, seed=7)
>>> result = min_total_distance(net, horizon=1000.0)
>>> from repro import simulate, PlannedPolicy, FixedWorkload
>>> out = simulate(net, PlannedPolicy(result.plan),
...                FixedWorkload.from_network(net), 1000.0)
>>> out.metrics.perpetual
True
"""

from repro.adaptive import MinTotalDistanceVarPolicy
from repro.analysis import validate_timescales
from repro.baselines import GreedyOnDemandPolicy, NaiveChargeAllPolicy
from repro.core import (
    ChargingScheduling,
    SchedulePlan,
    check_feasibility,
    lemma3_lower_bound,
    min_total_distance,
    quantize_cycles,
)
from repro.errors import ReproError
from repro.experiments import ExperimentConfig, run_cell, sweep
from repro.io import load_network, load_plan, save_network, save_plan
from repro.network import (
    LinearCycleDistribution,
    NetworkBuilder,
    RandomCycleDistribution,
    SensorNetwork,
    build_paper_network,
)
from repro.obs import Instrumentation, configure_logging
from repro.rooted import q_rooted_msf, q_rooted_tsp
from repro.sim import (
    FixedWorkload,
    PlannedPolicy,
    ResampledWorkload,
    Simulator,
    simulate,
)
from repro.tsp import Tour

__version__ = "1.0.0"

__all__ = [
    "ChargingScheduling",
    "ExperimentConfig",
    "FixedWorkload",
    "GreedyOnDemandPolicy",
    "Instrumentation",
    "LinearCycleDistribution",
    "MinTotalDistanceVarPolicy",
    "NaiveChargeAllPolicy",
    "NetworkBuilder",
    "PlannedPolicy",
    "RandomCycleDistribution",
    "ReproError",
    "ResampledWorkload",
    "SchedulePlan",
    "SensorNetwork",
    "Simulator",
    "Tour",
    "__version__",
    "build_paper_network",
    "check_feasibility",
    "configure_logging",
    "lemma3_lower_bound",
    "load_network",
    "load_plan",
    "min_total_distance",
    "q_rooted_msf",
    "q_rooted_tsp",
    "quantize_cycles",
    "run_cell",
    "save_network",
    "save_plan",
    "simulate",
    "sweep",
    "validate_timescales",
]
