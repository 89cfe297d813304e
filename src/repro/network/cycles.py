"""Charging-cycle distributions (Section VII of the paper).

Two distributions drive every experiment in the paper:

* **Linear** — a sensor's *average* cycle grows linearly with its distance
  to the base station (sensors near the sink relay traffic and drain fast);
  the actual cycle is uniform in ``[tau_bar - sigma, tau_bar + sigma]``
  with ``sigma = 2`` by default. Models data-gathering WSNs.
* **Random** — cycles uniform in ``[tau_min, tau_max]`` independent of
  geometry. Models multimedia WSNs where local processing dominates.

Both are exposed behind the tiny :class:`CycleDistribution` protocol so
workloads can resample them per time slot (the variable-cycle experiments),
plus :class:`ExplicitCycles` for tests and replays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.errors import ConfigError, NetworkModelError
from repro.geometry.rng import make_rng

__all__ = [
    "CycleDistribution",
    "LinearCycleDistribution",
    "RandomCycleDistribution",
    "ExplicitCycles",
]


@runtime_checkable
class CycleDistribution(Protocol):
    """Samples per-sensor maximum charging cycles for a given geometry."""

    def sample(self, base_distances: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
        """Draw one ``(n,)`` cycle vector.

        Parameters
        ----------
        base_distances:
            ``(n,)`` distance of each sensor to the base station — the only
            geometric covariate any paper distribution needs.
        rng:
            Source of randomness; implementations must not keep state, so a
            workload can call this once per time slot.
        """
        ...


def _check_bounds(tau_min: float, tau_max: float) -> None:
    if not (math.isfinite(tau_min) and math.isfinite(tau_max)):
        raise ConfigError("cycle bounds must be finite")
    if tau_min <= 0:
        raise ConfigError(f"tau_min must be positive, got {tau_min}")
    if tau_max < tau_min:
        raise ConfigError(f"tau_max ({tau_max}) must be >= tau_min ({tau_min})")


@dataclass(frozen=True)
class LinearCycleDistribution:
    """The paper's linear distribution.

    ``tau_bar_i = tau_min + (tau_max - tau_min) * d_i / d_max`` where ``d_i``
    is sensor ``i``'s distance to the base station and ``d_max`` the largest
    such distance in the deployment; then
    ``tau_i ~ Uniform[tau_bar_i - sigma, tau_bar_i + sigma]`` clipped below
    at ``clip_min`` (cycles must stay positive; the paper implicitly floors
    at ``tau_min`` since it reports the realised minimum as ``tau_min``).

    Parameters
    ----------
    tau_min, tau_max:
        Average cycle of the nearest / farthest sensor. Defaults 1 and 50
        (the paper's defaults).
    sigma:
        Half-width of the per-sensor uniform jitter (paper default 2; Fig. 6
        sweeps it to 50).
    clip_min:
        Lower clip for realised cycles; ``None`` means ``tau_min``.
    """

    tau_min: float = 1.0
    tau_max: float = 50.0
    sigma: float = 2.0
    clip_min: float | None = None

    def __post_init__(self) -> None:
        _check_bounds(self.tau_min, self.tau_max)
        if self.sigma < 0:
            raise ConfigError(f"sigma must be non-negative, got {self.sigma}")
        if self.clip_min is not None and self.clip_min <= 0:
            raise ConfigError(f"clip_min must be positive, got {self.clip_min}")

    def mean_cycles(self, base_distances: np.ndarray) -> np.ndarray:
        """The deterministic averages ``tau_bar_i`` (no jitter).

        Distances are min-max normalised so that the sensor *nearest* the
        base station gets exactly ``tau_min`` and the farthest exactly
        ``tau_max``, matching the paper's "the sensors nearest to the base
        station have the minimum average charging cycle" wording.
        """
        d = np.asarray(base_distances, dtype=np.float64)
        if d.ndim != 1 or d.size == 0:
            raise NetworkModelError("mean_cycles: base_distances must be 1-D, non-empty")
        d_min, d_max = float(d.min()), float(d.max())
        span = d_max - d_min
        frac = (d - d_min) / span if span > 0 else np.zeros_like(d)
        return self.tau_min + (self.tau_max - self.tau_min) * frac

    def sample(self, base_distances: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
        gen = make_rng(rng)
        bar = self.mean_cycles(base_distances)
        jitter = gen.uniform(-self.sigma, self.sigma, size=bar.shape)
        floor = self.tau_min if self.clip_min is None else self.clip_min
        return np.maximum(bar + jitter, floor)


@dataclass(frozen=True)
class RandomCycleDistribution:
    """The paper's random distribution: ``tau_i ~ Uniform[tau_min, tau_max]``
    independent of sensor location."""

    tau_min: float = 1.0
    tau_max: float = 50.0

    def __post_init__(self) -> None:
        _check_bounds(self.tau_min, self.tau_max)

    def sample(self, base_distances: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
        gen = make_rng(rng)
        n = np.asarray(base_distances).shape[0]
        return gen.uniform(self.tau_min, self.tau_max, size=n)


@dataclass(frozen=True)
class ExplicitCycles:
    """A fixed cycle vector wrapped as a distribution (tests, replays)."""

    values: tuple[float, ...]

    def sample(self, base_distances: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
        n = np.asarray(base_distances).shape[0]
        if n != len(self.values):
            raise NetworkModelError(
                f"ExplicitCycles: have {len(self.values)} values for n={n} sensors")
        return np.asarray(self.values, dtype=np.float64)
