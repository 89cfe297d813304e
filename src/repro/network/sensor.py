"""Sensor nodes.

A sensor in the paper is characterised by its location, its battery capacity
``B_i`` and its maximum charging cycle ``tau_i = B_i / rho_i`` (``rho_i``
being its energy-consumption rate). The experiments parameterise sensors by
``tau_i`` directly, so :class:`Sensor` stores the cycle and derives the rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import NetworkModelError
from repro.geometry.point import Point

__all__ = ["Sensor"]

#: Battery capacity used when none is specified. The paper never fixes an
#: absolute capacity because only the *cycle* tau_i = B_i / rho_i enters the
#: optimisation; a unit battery makes rate and 1/cycle numerically equal.
DEFAULT_BATTERY = 1.0


@dataclass(frozen=True, slots=True)
class Sensor:
    """One rechargeable sensor node.

    Parameters
    ----------
    id:
        Index of the sensor, ``0..n-1``, unique within a network and equal
        to its row in the network's distance matrix.
    position:
        Deployment location.
    cycle:
        Maximum charging cycle ``tau_i`` — the longest time the sensor can
        run on a full battery. Must be positive and finite.
    battery:
        Battery capacity ``B_i`` (energy units). Defaults to 1.
    """

    id: int
    position: Point
    cycle: float
    battery: float = DEFAULT_BATTERY

    def __post_init__(self) -> None:
        if self.id < 0:
            raise NetworkModelError(f"sensor id must be non-negative, got {self.id}")
        if not (math.isfinite(self.cycle) and self.cycle > 0):
            raise NetworkModelError(
                f"sensor {self.id}: cycle must be positive and finite, got {self.cycle}")
        if not (math.isfinite(self.battery) and self.battery > 0):
            raise NetworkModelError(
                f"sensor {self.id}: battery must be positive and finite, got {self.battery}")

    @property
    def rate(self) -> float:
        """Nominal energy-consumption rate ``rho_i = B_i / tau_i``."""
        return self.battery / self.cycle

    def lifetime_from(self, energy: float) -> float:
        """Residual lifetime when holding ``energy`` units and draining at
        the nominal rate."""
        if energy <= 0:
            return 0.0
        return energy / self.rate
