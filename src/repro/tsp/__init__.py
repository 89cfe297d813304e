"""TSP building blocks: tours, Algorithm 2's tour walk, 2-opt, exact TSP.

The paper reduces everything to rooted travelling-salesman subproblems;
the q-rooted layer builds on:

* :class:`~repro.tsp.tour.Tour` — an immutable closed tour anchored at a
  depot, with cost, validation and canonicalisation.
* :mod:`~repro.tsp.construct` — :func:`~repro.tsp.construct.tours_from_forest`,
  Algorithm 2's double/Euler/shortcut walk over every tree of a forest.
* :mod:`~repro.tsp.improve` — 2-opt local search, used by the optional
  refinement layer (an ablation; the paper's guarantees do not depend on
  it), and its full-scan oracle.
* :mod:`~repro.tsp.exact` — Held–Karp exact TSP for small instances, the
  oracle behind :func:`~repro.rooted.exact.exact_q_rooted_tsp`.
"""

from repro.tsp.exact import held_karp_tsp
from repro.tsp.improve import two_opt
from repro.tsp.tour import Tour

__all__ = [
    "Tour",
    "held_karp_tsp",
    "two_opt",
]
