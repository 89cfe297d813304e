"""EWMA prediction of sensor energy-consumption rates (Section VI.A).

The paper's light-weight predictor:

    ``rho_hat_i(t+1) = gamma * rho_i(t) + (1 - gamma) * rho_hat_i(t)``

where ``rho_i(t)`` is the rate sensor ``i`` measured over the last slot and
``gamma in (0, 1)`` weights recency. From the prediction and the reported
residual energy the base station derives the estimated residual lifetime
``l_i(t) = re_i(t) / rho_hat_i(t+1)`` and the estimated maximum charging
cycle ``tau_hat_i(t) = B_i / rho_hat_i(t+1)``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

__all__ = ["EwmaRatePredictor"]


class EwmaRatePredictor:
    """Vectorised EWMA over all sensors at once.

    Parameters
    ----------
    gamma:
        Recency weight in ``(0, 1]``. ``gamma = 1`` degenerates to
        "tomorrow equals today", which is exact within the paper's slotted
        model (rates are constant inside a slot) and is therefore the
        default; smaller values smooth noisy workloads at the price of lag.
    """

    def __init__(self, gamma: float = 1.0) -> None:
        if not (0.0 < gamma <= 1.0):
            raise ConfigError(f"gamma must be in (0, 1], got {gamma}")
        self.gamma = gamma
        self._rho_hat: np.ndarray | None = None
        self._last_observed: np.ndarray | None = None

    @property
    def initialized(self) -> bool:
        """Whether at least one observation has been ingested."""
        return self._rho_hat is not None

    def update(self, observed_rates: np.ndarray) -> np.ndarray:
        """Ingest one slot's measured rates; returns the new prediction.

        The first observation initialises the prediction directly (there is
        no prior to blend with).
        """
        obs = np.asarray(observed_rates, dtype=np.float64)
        if np.any(obs < 0) or not np.all(np.isfinite(obs)):
            raise ConfigError("observed rates must be finite and non-negative")
        if self._rho_hat is None:
            self._rho_hat = obs.copy()
        else:
            if obs.shape != self._rho_hat.shape:
                raise ConfigError(
                    f"observation shape {obs.shape} != state {self._rho_hat.shape}")
            self._rho_hat = self.gamma * obs + (1.0 - self.gamma) * self._rho_hat
        self._last_observed = obs.copy()
        return self.predicted_rates

    @property
    def predicted_rates(self) -> np.ndarray:
        """Current prediction ``rho_hat(t+1)`` (copy)."""
        if self._rho_hat is None:
            raise ConfigError("predictor queried before any observation")
        return self._rho_hat.copy()

    def conservative_rates(self) -> np.ndarray:
        """Element-wise ``max(prediction, last observation)``.

        Used for *survival* checks: the prediction decides the plan's shape,
        but when asking "can this sensor reach its next charge alive?" the
        safe rate is whichever of (smoothed, currently measured) is worse.
        """
        if self._rho_hat is None or self._last_observed is None:
            raise ConfigError("predictor queried before any observation")
        return np.maximum(self._rho_hat, self._last_observed)

    def predicted_cycles(self, batteries: np.ndarray) -> np.ndarray:
        """``tau_hat_i = B_i / rho_hat_i`` (``inf`` where the rate is 0)."""
        rho = self.predicted_rates
        b = np.asarray(batteries, dtype=np.float64)
        return np.divide(b, rho, out=np.full(b.shape, np.inf), where=rho > 0)
