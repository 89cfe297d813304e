"""Lower bounds on the optimal service cost (the paper's Lemma 3).

Lemma 3: for every class level ``k``, the optimal q-rooted TSP cost
``w(D*_k)`` over ``G[R ∪ V_0 ∪ ... ∪ V_k]`` satisfies

    ``w(D*_k) <= OPT / (m * 2^(K-k))``     with ``T = 2 m tau'_n``,

i.e. ``OPT >= m * 2^(K-k) * w(D*_k)``. Substituting
``m * 2^(K-k) = T / (2^(k+1) tau_1)`` and lower-bounding the unknown
``w(D*_k)`` by the (exactly computable) q-rooted MSF weight gives the
certificate this module reports:

    ``OPT >= max_k  T / (2^(k+1) tau_1) * MSF_k``.

This is what the ``abl-lb`` bench uses to show the delivered plans are much
closer to optimal than the worst-case ``2(K+2)`` factor suggests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.quantize import Quantization, quantize_cycles
from repro.errors import ScheduleError
from repro.network.model import SensorNetwork
from repro.rooted.msf import q_rooted_msf

__all__ = ["LowerBoundReport", "lemma3_lower_bound", "empirical_ratio"]


@dataclass(frozen=True)
class LowerBoundReport:
    """Per-level certificates and the final bound.

    Parameters
    ----------
    bound:
        ``max_k`` of the per-level bounds — a valid lower bound on OPT.
    per_level:
        ``(K+1,)`` array of the individual level bounds.
    msf_weights:
        ``(K+1,)`` array of q-rooted MSF weights over ``R ∪ V_0..V_k``.
    quantization:
        The class structure used.
    """

    bound: float
    per_level: np.ndarray
    msf_weights: np.ndarray
    quantization: Quantization

    @property
    def argmax_level(self) -> int:
        """The class level whose certificate is tight."""
        return int(np.argmax(self.per_level))


def lemma3_lower_bound(network: SensorNetwork, horizon: float,
                       *, cycles: np.ndarray | None = None) -> LowerBoundReport:
    """Compute the Lemma-3 lower bound on the optimal service cost.

    Parameters
    ----------
    network:
        The WSN instance.
    horizon:
        Monitoring period ``T``.
    cycles:
        Cycle override (defaults to the network's nominal cycles).

    Notes
    -----
    The bound derives from charging *necessity*: every sensor in
    ``V_0 ∪ .. ∪ V_k`` must be visited at least once in every window of
    length ``2^(k+1) tau_1``, and any family of tours visiting all of them
    costs at least the q-rooted MSF weight. The per-window count
    ``T / (2^(k+1) tau_1)`` is taken as a real number (not floored), which
    keeps the bound valid for any alignment of windows.
    """
    if horizon <= 0:
        raise ScheduleError(f"lemma3_lower_bound: horizon must be positive, got {horizon}")
    tau = network.cycles if cycles is None else np.asarray(cycles, dtype=np.float64)
    quant = quantize_cycles(tau)
    depots = [int(i) for i in network.depot_indices]

    msf_weights = np.zeros(quant.K + 1, dtype=np.float64)
    per_level = np.zeros(quant.K + 1, dtype=np.float64)
    prefix: list[int] = []
    for k in range(quant.K + 1):
        prefix.extend(int(s) for s in quant.members(k))
        forest = q_rooted_msf(None, prefix, depots, coords=network.coordinates)
        msf_weights[k] = forest.weight(coords=network.coordinates)
        windows = horizon / (np.ldexp(quant.tau1, k + 1))
        # Fewer than one full window proves nothing for this level.
        per_level[k] = msf_weights[k] * max(windows, 0.0) if windows >= 1.0 else 0.0
    return LowerBoundReport(bound=float(per_level.max()), per_level=per_level,
                            msf_weights=msf_weights, quantization=quant)


def empirical_ratio(plan_cost: float, bound: LowerBoundReport | float) -> float:
    """``plan_cost / lower_bound`` — an upper bound on the true
    approximation ratio achieved on this instance.

    Returns ``inf`` when the lower bound is zero (degenerate instances where
    all sensors sit on depots).
    """
    b = bound.bound if isinstance(bound, LowerBoundReport) else float(bound)
    if b <= 0:
        return float("inf")
    return plan_cost / b
