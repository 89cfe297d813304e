"""Closed tours anchored at a depot.

A :class:`Tour` is the atomic object of the paper's solutions: the closed
walk one mobile charger drives, starting and ending at its depot. Tours are
stored as the *open* visiting order beginning with the depot; the closing
edge back to the depot is implicit and included in :meth:`Tour.cost`.

The degenerate single-node tour (charger never leaves home) is legal and has
cost zero — the paper explicitly allows ``V(C_{j,l}) = {r_l}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import TourError
from repro.geometry.distance import closed_tour_length, path_length

__all__ = ["Tour"]


@dataclass(frozen=True)
class Tour:
    """An immutable closed tour.

    Parameters
    ----------
    depot:
        Graph index of the anchoring depot; must equal ``order[0]``.
    order:
        Visiting order (graph indices), starting with the depot, each node
        at most once. The return edge ``order[-1] -> order[0]`` is implicit.
    """

    depot: int
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.order:
            raise TourError("Tour: empty order (must at least contain the depot)")
        if self.order[0] != self.depot:
            raise TourError(
                f"Tour: order must start at depot {self.depot}, starts at {self.order[0]}")
        if len(set(self.order)) != len(self.order):
            raise TourError(f"Tour: repeated node in order {self.order}")

    @classmethod
    def from_sequence(cls, depot: int, seq: Iterable[int]) -> "Tour":
        """Build from any iterable; a trailing repeat of the depot (as
        produced by Eulerian circuits) is stripped."""
        nodes = [int(v) for v in seq]
        if len(nodes) >= 2 and nodes[-1] == nodes[0]:
            nodes = nodes[:-1]
        return cls(depot=int(depot), order=tuple(nodes))

    @classmethod
    def empty(cls, depot: int) -> "Tour":
        """The stay-at-home tour ``{r_l}`` of cost zero."""
        return cls(depot=int(depot), order=(int(depot),))

    # ------------------------------------------------------------ properties
    @property
    def n_stops(self) -> int:
        """Number of non-depot nodes visited."""
        return len(self.order) - 1

    @property
    def is_empty(self) -> bool:
        """True for the stay-at-home tour."""
        return len(self.order) == 1

    def visited(self) -> frozenset[int]:
        """All nodes on the tour, including the depot."""
        return frozenset(self.order)

    def stops(self) -> tuple[int, ...]:
        """Non-depot nodes in visiting order."""
        return self.order[1:]

    # ----------------------------------------------------------------- costs
    def cost(self, dist: np.ndarray | None = None, *,
             coords: np.ndarray | None = None) -> float:
        """Closed-tour length under distance matrix ``dist`` or, with
        ``coords=``, measured straight from the ``(n, 2)`` node coordinates
        (bit-identical, and no matrix needed). Pass exactly one."""
        if (dist is None) == (coords is None):
            raise TypeError("Tour.cost: pass exactly one of dist or coords=")
        if coords is not None:
            return closed_tour_length(coords, self.order)
        return path_length(np.asarray(dist), self.order, closed=True)

    def edges(self) -> list[tuple[int, int]]:
        """The tour's edges, including the closing one (empty if no stops)."""
        if self.is_empty:
            return []
        out = [(self.order[i], self.order[i + 1]) for i in range(len(self.order) - 1)]
        out.append((self.order[-1], self.order[0]))
        return out

    # ------------------------------------------------------------- transforms
    def with_order(self, order: Sequence[int]) -> "Tour":
        """Copy with a new visiting order (same depot; order must start
        with it). Used by local-search improvers."""
        return Tour(depot=self.depot, order=tuple(int(v) for v in order))

    def canonical(self) -> "Tour":
        """Direction-normalised copy: of the two traversal directions, pick
        the one whose second node has the smaller index. Costs are invariant
        under reversal (symmetric metric); tests use this to compare tours
        structurally."""
        if len(self.order) <= 2:
            return self
        fwd = self.order
        rev = (self.order[0],) + tuple(reversed(self.order[1:]))
        return self if fwd[1] <= rev[1] else Tour(depot=self.depot, order=rev)

    def validate_against(self, required: Iterable[int]) -> None:
        """Raise :class:`TourError` unless the tour covers all of
        ``required`` (besides the depot)."""
        missing = set(required) - set(self.order)
        if missing:
            raise TourError(f"Tour from depot {self.depot} misses nodes {sorted(missing)}")
