"""The discrete-event queue: typed, totally-ordered events.

Every future occurrence in a simulation — slot boundary, policy dispatch,
charger breakdown/repair, sensor churn, charging request, end of horizon —
is an :class:`Event` on one :class:`EventQueue`. Events are totally ordered
by ``(time, priority, seq)``:

* ``time`` — simulation time of the occurrence;
* ``priority`` — the *kind* rank, breaking ties between coincident events
  (see the ``PRIORITY_*`` constants: horizon end always wins, then slot
  boundaries, fleet failures/repairs, churn, requests, and policy
  dispatches last — a policy reacting to a change at time ``t`` must see
  that change applied before it decides);
* ``seq`` — insertion order, making ties within one kind deterministic.

Coincidence is decided with a **relative-or-absolute** tolerance
(:func:`time_tolerance`): two timestamps within ``1e-9 · max(1, |t|)`` are
the same instant. A plain absolute ``1e-9`` is below one float64 ulp once
``t ≥ 1e7`` (ulp(1e7) ≈ 1.9e-9), so long-horizon runs would mis-order
events that differ only by rounding; the relative form keeps the test
meaningful at any magnitude.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any

from repro.errors import SimulationError

__all__ = [
    "Event",
    "EventQueue",
    "PRIORITY_HORIZON",
    "PRIORITY_SLOT",
    "PRIORITY_FAILURE",
    "PRIORITY_CHURN",
    "PRIORITY_REQUEST",
    "PRIORITY_DISPATCH",
    "time_tolerance",
    "coincident",
]

#: Relative coincidence tolerance (absolute below ``|t| = 1``).
_TIME_TOL = 1e-9

# Priority classes, processed low-to-high among coincident events. The
# horizon end outranks everything: events *at* the horizon never fire
# (the run is over). State changes (slot rates, fleet, membership) precede
# request bookkeeping, which precedes policy dispatches.
PRIORITY_HORIZON = 0
PRIORITY_SLOT = 1
PRIORITY_FAILURE = 2
PRIORITY_CHURN = 3
PRIORITY_REQUEST = 4
PRIORITY_DISPATCH = 5


def time_tolerance(t: float) -> float:
    """Coincidence tolerance at time ``t``: ``1e-9 · max(1, |t|)``.

    Relative above 1, absolute below — always a few ulp wide, never zero.
    """
    return _TIME_TOL * max(1.0, abs(t))


def coincident(a: float, b: float) -> bool:
    """True when ``a`` and ``b`` denote the same simulation instant."""
    return abs(a - b) <= time_tolerance(max(abs(a), abs(b)))


@dataclass(slots=True)
class Event:
    """One scheduled occurrence.

    Parameters
    ----------
    time:
        When it fires.
    priority:
        Kind rank (one of the ``PRIORITY_*`` constants) breaking ties
        between coincident events.
    kind:
        Short label (``"slot"``, ``"dispatch"``, ``"failure"``, ...) used
        for observability counters and logs.
    seq:
        Queue-assigned insertion index; the final tie-break.
    data:
        Opaque payload interpreted by the source that scheduled it.
    source:
        The :class:`~repro.sim.sources.EventSource` whose ``fire`` handles
        it (``None`` for engine-internal events such as the horizon end).
    """

    time: float
    priority: int
    kind: str
    seq: int = -1
    data: Any = None
    source: Any = None
    cancelled: bool = field(default=False, compare=False)


class EventQueue:
    """Binary-heap priority queue over ``(time, priority, seq)``.

    Cancellation is lazy: :meth:`cancel` marks the event and the heap
    discards it on pop, so rescheduling (the policy-dispatch source does
    this constantly) is O(log n) with no heap surgery.
    """

    __slots__ = ("_heap", "_seq", "_live")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        """Number of *live* (not cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, priority: int, kind: str, *,
             data: Any = None, source: Any = None) -> Event:
        """Schedule an event; returns the handle (usable with :meth:`cancel`)."""
        t = float(time)
        if not math.isfinite(t):
            raise SimulationError(f"event time must be finite, got {time} ({kind})")
        ev = Event(time=t, priority=int(priority), kind=kind, seq=self._seq,
                   data=data, source=source)
        self._seq += 1
        self._live += 1
        heapq.heappush(self._heap, (ev.time, ev.priority, ev.seq, ev))
        return ev

    def cancel(self, event: Event) -> None:
        """Mark an event dead; it is silently dropped when reached."""
        if not event.cancelled:
            event.cancelled = True
            self._live -= 1

    def peek(self) -> Event | None:
        """The earliest live event without removing it (``None`` if empty)."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0][3] if heap else None

    def pop(self) -> Event | None:
        """Remove and return the earliest live event (``None`` if empty)."""
        heap = self._heap
        while heap:
            ev = heapq.heappop(heap)[3]
            if not ev.cancelled:
                self._live -= 1
                return ev
        return None

    def pop_coincident(self) -> list[Event]:
        """Pop the earliest event plus everything coincident with it.

        The batch shares one simulation instant — the *anchor* time of its
        earliest member — and is returned sorted by ``(priority, seq)``,
        i.e. the documented processing order. Returns ``[]`` when empty.
        """
        first = self.pop()
        if first is None:
            return []
        batch = [first]
        limit = first.time + time_tolerance(first.time)
        while True:
            nxt = self.peek()
            if nxt is None or nxt.time > limit:
                break
            batch.append(self.pop())
        batch.sort(key=lambda e: (e.priority, e.seq))
        return batch
