"""q-rooted algorithms: the paper's Algorithm 1 and Algorithm 2.

* :func:`~repro.rooted.msf.q_rooted_msf` — exact minimum spanning forest
  with one tree per depot (Algorithm 1): contract the depots into a
  super-root, MST, un-contract. Optimality is Lemma 1.
* :func:`~repro.rooted.msf.rooted_msf` — the same contraction engine over an
  arbitrary sensor/root cost structure; the adaptive patch phase reuses it
  with *scheduling supernodes* as roots (Section VI).
* :func:`~repro.rooted.qtsp.q_rooted_tsp` — the 2-approximation for the
  q-rooted TSP (Algorithm 2): per-tree double/Euler/shortcut, realised as a
  DFS preorder walk.
* :func:`~repro.rooted.refine.refine_tours` — optional 2-opt
  post-pass (never worsens a tour, so the 2x guarantee is preserved).
"""

from repro.rooted.exact import exact_q_rooted_tsp
from repro.rooted.msf import MsfAssignment, q_rooted_msf, rooted_msf
from repro.rooted.qtsp import q_rooted_tsp, tours_total_cost
from repro.rooted.refine import refine_tours

__all__ = [
    "MsfAssignment",
    "exact_q_rooted_tsp",
    "q_rooted_msf",
    "q_rooted_tsp",
    "refine_tours",
    "rooted_msf",
    "tours_total_cost",
]
