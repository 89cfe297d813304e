"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything produced by this package with a single ``except`` clause
while still letting programming errors (``TypeError`` et al.) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GeometryError",
    "NetworkModelError",
    "GraphError",
    "TourError",
    "ScheduleError",
    "SimulationError",
    "SensorDeathError",
    "ConfigError",
    "ServeError",
    "CheckError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GeometryError(ReproError):
    """Invalid geometric input (bad coordinates, empty point sets, ...)."""


class NetworkModelError(ReproError):
    """Inconsistent sensor-network model (duplicate ids, bad cycles, ...)."""


class GraphError(ReproError):
    """Invalid graph operation (disconnected input to MST, bad root, ...)."""


class TourError(ReproError):
    """Invalid tour (missing depot, repeated node, non-closed, ...)."""


class ScheduleError(ReproError):
    """Malformed charging schedule or plan."""


class SimulationError(ReproError):
    """The simulator was driven into an invalid state."""


class SensorDeathError(SimulationError):
    """A sensor ran out of energy during a simulation configured as strict.

    Attributes
    ----------
    sensor_id:
        Identifier of the dead sensor.
    time:
        Simulation time of the death event.
    """

    def __init__(self, message: str, *, sensor_id: int, time: float) -> None:
        super().__init__(message)
        self.sensor_id = sensor_id
        self.time = time


class ConfigError(ReproError):
    """Invalid experiment or algorithm configuration."""


class ServeError(ReproError):
    """Planning-service failure (wire-protocol violation or server error).

    Raised by :mod:`repro.serve` on both sides of the wire: the server maps
    it to a structured error response, and the client raises it when a
    response carries ``ok: false``.

    Attributes
    ----------
    code:
        The protocol error code (one of
        :data:`repro.serve.protocol.ERROR_CODES`; e.g. ``"overloaded"``,
        ``"deadline_exceeded"``) so callers can switch on the failure mode.
    """

    def __init__(self, message: str, *, code: str = "internal") -> None:
        super().__init__(message)
        self.code = code


class CheckError(ReproError):
    """A verification-harness invariant or differential oracle failed.

    Raised by :mod:`repro.check` when two execution paths disagree or a
    runtime invariant is violated. Deliberately distinct from the errors
    the checked code itself raises, so the harness can tell "the library
    rejected bad input" (expected on malformed scenarios) apart from "the
    library silently produced a wrong answer" (the bug class this
    exception exists to report).

    Attributes
    ----------
    invariant:
        Short machine-readable name of the violated invariant or check
        (e.g. ``"full_charge"``, ``"cache_differential"``), or ``None``.
    """

    def __init__(self, message: str, *, invariant: str | None = None) -> None:
        super().__init__(message)
        self.invariant = invariant
