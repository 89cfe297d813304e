"""Depots (mobile-charger home bases) and the base station."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NetworkModelError
from repro.geometry.point import Point

__all__ = ["Depot", "BaseStation"]


@dataclass(frozen=True, slots=True)
class Depot:
    """Home base of one mobile charger.

    Every charging tour of charger ``l`` starts and ends at its depot
    ``r_l``, where the vehicle refuels/recharges between dispatches.

    Parameters
    ----------
    id:
        Index of the depot, ``0..q-1``; charger ``l`` lives at depot ``l``.
    position:
        Depot location.
    """

    id: int
    position: Point

    def __post_init__(self) -> None:
        if self.id < 0:
            raise NetworkModelError(f"depot id must be non-negative, got {self.id}")


@dataclass(frozen=True, slots=True)
class BaseStation:
    """The stationary sink all sensing data is relayed to.

    The base station plays no direct role in the optimisation (chargers are
    rooted at depots) but anchors the *linear* charging-cycle distribution —
    sensors close to it relay more traffic and so have shorter cycles.
    """

    position: Point
