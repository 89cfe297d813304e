"""Per-sensor periodic charging without power-of-two merging (ablation).

MinTotalDistance's win over greedy has two ingredients: (1) charging each
sensor on a fixed period instead of on demand, and (2) rounding periods to
powers of two so co-scheduled classes *nest* and tours share distance. This
baseline keeps (1) but drops (2): each sensor ``i`` is charged every
``floor(tau_i / tau_1) * tau_1`` — the longest grid-aligned period that is
still safe — and sensors due at the same grid tick share one q-rooted tour
set. Comparing it against Algorithm 3 (the ``abl-baselines`` panel)
isolates the value of the geometric class structure.
"""

from __future__ import annotations

import numpy as np

from repro.core.schedule import SchedulePlan
from repro.errors import ScheduleError
from repro.network.model import SensorNetwork
from repro.rooted.qtsp import q_rooted_tsp

__all__ = ["periodic_per_sensor_plan"]


def periodic_per_sensor_plan(network: SensorNetwork, horizon: float,
                             *, cycles: np.ndarray | None = None,
                             grid: float | None = None,
                             refine: bool = False) -> SchedulePlan:
    """Build the grid-periodic plan described in the module docstring.

    Parameters
    ----------
    network:
        The WSN instance.
    horizon:
        Monitoring period ``T``.
    cycles:
        Cycle override (defaults to the network's nominal cycles).
    grid:
        The grid tick ``tau_1``; defaults to the realised minimum cycle.
        Pass the greedy baseline's ``Δl`` to make the coincidence exact:
        with ``grid == Δl`` and continuously distributed cycles this plan
        charges every sensor at the same epochs greedy does (almost
        surely), so their service costs match — the finding the
        ``abl-baselines`` bench records. Must not exceed the smallest
        cycle (feasibility).
    refine:
        Forward 2-opt refinement to tour construction.

    Returns
    -------
    SchedulePlan
        Feasible by construction: sensor ``i``'s period
        ``floor(tau_i/tau_1) * tau_1 <= tau_i``.
    """
    if horizon <= 0:
        raise ScheduleError(f"horizon must be positive, got {horizon}")
    tau = network.cycles if cycles is None else np.asarray(cycles, dtype=np.float64)
    if tau.shape != (network.n,):
        raise ScheduleError(f"expected {network.n} cycles, got shape {tau.shape}")
    tau1 = float(tau.min()) if grid is None else float(grid)
    if tau1 <= 0 or tau1 > float(tau.min()) * (1 + 1e-12):
        raise ScheduleError(
            f"grid {tau1} must be positive and no larger than the smallest "
            f"cycle {float(tau.min())}")
    # Per-sensor grid periods, in ticks of tau1 (>= 1 by construction).
    ticks = np.maximum(np.floor(tau / tau1 * (1 + 1e-12)).astype(np.int64), 1)

    depots = [int(i) for i in network.depot_indices]
    index_of: dict[frozenset[int], int] = {}  # due set -> its table entry
    tour_sets: list[tuple] = []
    times: list[float] = []
    refs: list[int] = []
    j = 1
    while j * tau1 < horizon:
        due = np.nonzero(j % ticks == 0)[0]
        if due.size:
            key = frozenset(int(s) for s in due)
            if key not in index_of:
                index_of[key] = len(tour_sets)
                tour_sets.append(tuple(q_rooted_tsp(
                    None, sorted(key), depots, refine=refine,
                    coords=network.coordinates)))
            times.append(j * tau1)
            refs.append(index_of[key])
        j += 1
    return SchedulePlan(horizon=horizon, tour_sets=tuple(tour_sets),
                        times=times, refs=refs)
