"""The paper's primary contribution: service-cost-minimising schedules.

* :mod:`~repro.core.quantize` — power-of-two charging-cycle quantisation:
  classes ``V_k`` with assigned cycles ``tau'_i = 2^k tau_1 in (tau_i/2, tau_i]``.
* :mod:`~repro.core.schedule` — :class:`ChargingScheduling` (one dispatch of
  the q chargers) and :class:`SchedulePlan` (the whole series, stored as a
  dispatch table; its ``total_cost`` is the service cost).
* :mod:`~repro.core.mintotal` — Algorithm 3, ``MinTotalDistance``: the
  ``2(K+2)``-approximation for fixed maximum charging cycles.
* :mod:`~repro.core.feasibility` — verification that a plan never lets a
  sensor die (the problem's hard constraint).
* :mod:`~repro.core.bounds` — the Lemma-3 lower bound on OPT and empirical
  approximation ratios.
"""

from repro.core.bounds import empirical_ratio, lemma3_lower_bound
from repro.core.feasibility import FeasibilityReport, check_feasibility
from repro.core.mintotal import MinTotalDistanceResult, min_total_distance
from repro.core.quantize import Quantization, quantize_cycles
from repro.core.schedule import ChargingScheduling, SchedulePlan

__all__ = [
    "ChargingScheduling",
    "FeasibilityReport",
    "MinTotalDistanceResult",
    "Quantization",
    "SchedulePlan",
    "check_feasibility",
    "empirical_ratio",
    "lemma3_lower_bound",
    "min_total_distance",
    "quantize_cycles",
]
