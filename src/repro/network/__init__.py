"""Wireless-sensor-network model: sensors, depots, deployments, cycles.

This package is the paper's Section III ("Preliminaries") made concrete:

* :class:`~repro.network.sensor.Sensor` / :class:`~repro.network.depot.Depot`
  / :class:`~repro.network.depot.BaseStation` — the node types.
* :class:`~repro.network.model.SensorNetwork` — an immutable network
  instance stored as columns (coordinates, cycles, batteries) with the
  convention *sensors first, depots after*; the complete metric graph
  ``G = (V ∪ R, E; w)`` is its lazily built dense distance matrix.
* :mod:`~repro.network.deployment` — uniform random deployment in the
  1000 m x 1000 m area, one depot co-located with the central base station.
* :mod:`~repro.network.cycles` — the two charging-cycle distributions of
  Section VII (linear-in-distance and uniform-random).
* :mod:`~repro.network.builder` — fluent builder + one-call constructors
  used by examples, tests and the experiment runner.
"""

from repro.network.builder import NetworkBuilder, build_paper_network
from repro.network.cycles import (
    CycleDistribution,
    ExplicitCycles,
    LinearCycleDistribution,
    RandomCycleDistribution,
)
from repro.network.deployment import deploy_sensors, place_depots
from repro.network.depot import BaseStation, Depot
from repro.network.model import SensorNetwork
from repro.network.sensor import Sensor

__all__ = [
    "BaseStation",
    "CycleDistribution",
    "Depot",
    "ExplicitCycles",
    "LinearCycleDistribution",
    "NetworkBuilder",
    "RandomCycleDistribution",
    "Sensor",
    "SensorNetwork",
    "build_paper_network",
    "deploy_sensors",
    "place_depots",
]
