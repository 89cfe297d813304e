"""Optional post-optimisation of q-rooted tours.

The improvers only ever accept strictly better orders, so refined solutions
keep every guarantee of the construction they start from. This is the
``abl-refine`` ablation's subject, not part of the paper's algorithm.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigError
from repro.obs.instrument import Instrumentation
from repro.tsp.improve import or_opt, two_opt
from repro.tsp.tour import Tour

__all__ = ["refine_tours"]


def refine_tours(dist: np.ndarray, tours: Sequence[Tour],
                 *, method: str = "2opt",
                 obs: Instrumentation | None = None) -> list[Tour]:
    """Improve each tour independently with local search.

    Parameters
    ----------
    dist:
        Full distance matrix.
    tours:
        Tours to improve (depot assignments are never changed — the q-rooted
        structure, i.e. which charger serves which sensors, is preserved).
    method:
        ``"2opt"`` (default) or ``"2opt+oropt"`` for the heavier pipeline.
    obs:
        Optional instrumentation context, forwarded to the improvers
        (``two_opt.passes`` / ``two_opt.moves`` counters and friends).

    Returns
    -------
    list[Tour]
        Improved tours; each costs at most its input's cost.
    """
    if method not in ("2opt", "2opt+oropt"):
        raise ConfigError(f"refine_tours: unknown method {method!r}")
    d = np.asarray(dist)
    out: list[Tour] = []
    for t in tours:
        improved = two_opt(d, t, obs=obs)
        if method == "2opt+oropt":
            improved = or_opt(d, improved, obs=obs)
            improved = two_opt(d, improved, obs=obs)
        out.append(improved)
    return out
