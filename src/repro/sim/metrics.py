"""Aggregate simulation metrics and the bounded event log.

Metrics hold one :class:`EventLog` per event kind. A log behaves like a
plain list of event records (len / index / slice / iterate / compare), but
stores chunks: one event object per :meth:`EventLog.append`, or one
:class:`~repro.sim.events.EventColumns` batch per :meth:`EventLog.extend` —
the engine logs each dispatch's charges and each drain interval's deaths
that way, so the records are built only when the log is read
(:meth:`Metrics.event_log_jsonl` included) and :meth:`EventLog.column`
reads one field of every kept event without building any.

A log can be bounded to a ring of the ``maxlen`` most recent events: whole
leading chunks are dropped while the rest still holds ``maxlen`` events,
and the surplus rows of the first kept chunk are hidden, so the log shows
exactly what a ``deque(maxlen=...)`` of the records would, and holds at
most one chunk beyond the bound. ``EventLog.total`` and ``dropped`` stay
exact, and so do the counts (``n_dispatches`` etc.). A log can also spill
every event to JSONL via the :mod:`repro.obs.trace` encoding; a batch
spills its records in row order, so the file is byte-identical to logging
them one at a time. Both keep 100x-horizon runs at flat memory.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import IO, Any, Iterator

import numpy as np

from repro.obs.trace import TraceEvent
from repro.sim.events import ChargeEvent, EventColumns

__all__ = ["Metrics", "EventLog", "EventSpill"]

#: Log names in merge order for coincident timestamps — mirrors the event
#: priority classes (fleet/churn/requests are state changes, dispatches and
#: their charges follow, deaths interleave by time like everything else).
_LOG_ORDER = ("fleet", "churn", "requests", "deaths", "dispatches", "charges")


class EventSpill:
    """Append-only JSONL sink for simulation events.

    Each record is a :class:`~repro.obs.trace.TraceEvent` dict with name
    ``sim.<log>``, ``kind="event"``, ``t`` = simulation time and the event's
    remaining fields as attrs, so existing trace tooling
    (:func:`repro.obs.trace.read_jsonl`) reads spilled logs directly.
    """

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: IO[str] | None = self._path.open("w", encoding="utf-8")

    @property
    def path(self) -> Path:
        return self._path

    def write(self, log_name: str, event: Any) -> None:
        if self._fh is None:
            return
        attrs = asdict(event)
        t = attrs.pop("time", 0.0)
        rec = TraceEvent(name=f"sim.{log_name}", kind="event", t=float(t), attrs=attrs)
        self._fh.write(json.dumps(rec.to_dict(), separators=(",", ":")))
        self._fh.write("\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "EventSpill":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class EventLog:
    """List-like event container, optionally bounded and/or spilled.

    Parameters
    ----------
    maxlen:
        Keep only the most recent ``maxlen`` events in memory (``None`` =
        unbounded, the default).
    spill:
        Optional :class:`EventSpill`; every logged event is also written
        there, bounded or not.
    name:
        Log name used in spill records and serialization.

    The log is a sequence of chunks: :meth:`append` adds one event object,
    :meth:`extend` one :class:`~repro.sim.events.EventColumns` batch, whose
    records are built only when they are read (iteration, indexing,
    comparison, serialization). A bounded log drops whole leading chunks
    while the rest still holds ``maxlen`` events and hides the surplus
    rows of the first kept chunk, so it shows exactly the last ``maxlen``
    events and holds at most one chunk more. ``total`` counts every event
    ever logged; ``len`` is what is still shown.
    """

    __slots__ = ("_chunks", "_held", "_head", "_total", "_spill", "name", "maxlen")

    def __init__(self, maxlen: int | None = None,
                 spill: EventSpill | None = None, name: str = "") -> None:
        self.maxlen = maxlen
        self.name = name
        self._chunks: deque[tuple[Any, ...] | EventColumns] = deque()
        self._held = 0   # rows in all chunks, hidden head rows included
        self._head = 0   # hidden leading rows of the first chunk
        self._total = 0
        self._spill = spill

    # ----------------------------------------------------------- logging
    def append(self, event: Any) -> None:
        """Log one event."""
        self._add((event,))
        if self._spill is not None:
            self._spill.write(self.name, event)

    def extend(self, batch: EventColumns) -> None:
        """Log a batch of events, in row order."""
        if len(batch) == 0:
            return
        self._add(batch)
        if self._spill is not None:
            for event in batch[:]:
                self._spill.write(self.name, event)

    def _add(self, chunk: tuple[Any, ...] | EventColumns) -> None:
        size = len(chunk)
        self._total += size
        self._held += size
        self._chunks.append(chunk)
        if self.maxlen is None or self._held <= self.maxlen:
            return
        while self._chunks and self._held - len(self._chunks[0]) >= self.maxlen:
            self._held -= len(self._chunks.popleft())
        self._head = self._held - self.maxlen

    # --------------------------------------------------------- list protocol
    def __len__(self) -> int:
        return self._held - self._head

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self) -> Iterator[Any]:
        start = self._head
        for chunk in self._chunks:
            yield from chunk[start:]
            start = 0

    def __getitem__(self, index: int | slice) -> Any:
        if isinstance(index, slice):
            return list(self)[index]
        i = range(len(self))[index] + self._head
        for chunk in self._chunks:
            if i < len(chunk):
                return chunk[i]
            i -= len(chunk)
        raise AssertionError("unreachable: index was range-checked")

    def column(self, name: str) -> np.ndarray:
        """Field ``name`` of every shown event, as one array, without
        building the event records of column batches."""
        parts = []
        start = self._head
        for chunk in self._chunks:
            if isinstance(chunk, EventColumns):
                parts.append(chunk.column(name)[start:])
            else:
                parts.append(np.asarray([getattr(ev, name) for ev in chunk[start:]]))
            start = 0
        return np.concatenate(parts) if parts else np.empty(0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (EventLog, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        bound = "" if self.maxlen is None else f", maxlen={self.maxlen}"
        return f"EventLog({list(self)!r}{bound})"

    # ------------------------------------------------------------- accounting
    @property
    def total(self) -> int:
        """Number of events ever logged (>= ``len`` when bounded)."""
        return self._total

    @property
    def dropped(self) -> int:
        """Events evicted from the in-memory window."""
        return self._total - len(self)


@dataclass
class Metrics:
    """Accumulated over one simulation run.

    Attributes
    ----------
    service_cost:
        Total travel distance of all chargers (the paper's objective).
    per_charger:
        ``(q,)`` distance per charger.
    dispatches, charges, deaths:
        The slotted-model event log, in time order.
    fleet, churn, requests:
        Dynamic-scenario logs: charger breakdown/repair, sensor
        leave/rejoin, charging-request arrivals (empty in static runs).
    """

    q: int
    service_cost: float = 0.0
    energy_delivered: float = 0.0
    per_charger: np.ndarray = field(default_factory=lambda: np.zeros(0))
    dispatches: EventLog = field(default_factory=EventLog)
    charges: EventLog = field(default_factory=EventLog)
    deaths: EventLog = field(default_factory=EventLog)
    fleet: EventLog = field(default_factory=EventLog)
    churn: EventLog = field(default_factory=EventLog)
    requests: EventLog = field(default_factory=EventLog)
    #: Exact breakdown tally kept by the engine at append time, so
    #: :attr:`n_failures` survives ring-buffer truncation of ``fleet``.
    breakdowns: int = 0

    def __post_init__(self) -> None:
        if self.per_charger.size == 0:
            self.per_charger = np.zeros(self.q, dtype=np.float64)
        for name in _LOG_ORDER:
            log = getattr(self, name)
            if isinstance(log, EventLog) and not log.name:
                log.name = name

    @classmethod
    def create(cls, q: int, *, max_log_events: int | None = None,
               spill: EventSpill | None = None) -> "Metrics":
        """Build with every log bounded to ``max_log_events`` and/or wired
        to a JSONL ``spill`` (the engine's factory)."""
        logs = {name: EventLog(maxlen=max_log_events, spill=spill, name=name)
                for name in _LOG_ORDER}
        return cls(q=q, **logs)

    # ----------------------------------------------------------- aggregates
    @property
    def n_dispatches(self) -> int:
        """Number of charging schedulings executed."""
        return _count(self.dispatches)

    @property
    def n_charges(self) -> int:
        """Total sensor-charges performed."""
        return _count(self.charges)

    @property
    def n_deaths(self) -> int:
        """Number of death events (0 means the run was perpetual)."""
        return _count(self.deaths)

    @property
    def n_failures(self) -> int:
        """Charger breakdown events (availability going down)."""
        if self.breakdowns:
            return self.breakdowns
        # Metrics built outside the engine (hand-assembled logs): count the
        # kept window, estimating the evicted half if the ring truncated.
        return sum(1 for ev in self.fleet if not ev.available) + _breakdown_dropped(self.fleet)

    @property
    def n_churn_events(self) -> int:
        """Total membership flips (leaves + rejoins)."""
        return _count(self.churn)

    @property
    def n_requests(self) -> int:
        """Charging-request arrivals."""
        return _count(self.requests)

    @property
    def perpetual(self) -> bool:
        """True iff no sensor ever ran out of energy."""
        return self.n_deaths == 0

    def mean_dispatch_cost(self) -> float:
        """Average tour-set length per dispatch (0 if none)."""
        n = self.n_dispatches
        if n == 0:
            return 0.0
        return self.service_cost / n

    def cost_per_energy(self) -> float:
        """Metres driven per unit of energy delivered — the fleet's
        efficiency (lower is better; ``inf`` if nothing was delivered)."""
        if self.energy_delivered <= 0:
            return float("inf")
        return self.service_cost / self.energy_delivered

    def closest_call(self) -> ChargeEvent | None:
        """The charge that arrived with the least energy remaining — how
        tightly the policy cuts its margins (``None`` if no charges; the
        earliest of tied charges)."""
        if not self.charges:
            return None
        return self.charges[int(np.argmin(self.charges.column("energy_before")))]

    def charges_per_sensor(self, n: int) -> np.ndarray:
        """``(n,)`` number of times each sensor was charged."""
        sensors = self.charges.column("sensor").astype(np.intp)
        out = np.bincount(sensors, minlength=n).astype(np.int64)
        if out.shape != (n,):
            raise IndexError(f"charges_per_sensor: a sensor id is >= n = {n}")
        return out

    def event_log_jsonl(self) -> str:
        """Canonical one-event-per-line serialization of the merged log.

        Events from all logs are merged by ``(time, log rank, position)``
        — a total, deterministic order — and encoded like the spill format.
        Two runs are replay-identical iff these strings are byte-equal; the
        CI determinism smoke and ``repro check sim`` compare exactly this.
        """
        rows: list[tuple[float, int, int, str]] = []
        for rank, name in enumerate(_LOG_ORDER):
            for pos, ev in enumerate(getattr(self, name)):
                attrs = asdict(ev)
                t = attrs.pop("time", 0.0)
                rec = TraceEvent(name=f"sim.{name}", kind="event", t=float(t),
                                 attrs=attrs)
                rows.append((float(t), rank, pos,
                             json.dumps(rec.to_dict(), separators=(",", ":"))))
        rows.sort(key=lambda r: (r[0], r[1], r[2]))
        return "\n".join(r[3] for r in rows) + ("\n" if rows else "")

    def summary(self) -> str:
        """Human-readable digest."""
        status = "perpetual" if self.perpetual else f"{self.n_deaths} DEATHS"
        extra = ""
        if self.fleet or self.churn or self.requests:
            extra = (f" failures={self.n_failures} churn={self.n_churn_events}"
                     f" requests={self.n_requests}")
        return (f"service_cost={self.service_cost:.1f} "
                f"dispatches={self.n_dispatches} charges={self.n_charges} "
                f"[{status}]{extra}")


def _count(log: Any) -> int:
    """True event count: ``total`` for bounded logs, ``len`` for lists."""
    return log.total if isinstance(log, EventLog) else len(log)


def _breakdown_dropped(log: Any) -> int:
    """Evicted fleet events counted as breakdowns (every second one is)."""
    if not isinstance(log, EventLog) or log.dropped == 0:
        return 0
    # Breakdown/repair strictly alternate per charger, so evicted events
    # split evenly (±q); engine-built Metrics carry the exact tally in
    # :attr:`Metrics.breakdowns` and never reach this estimate.
    return log.dropped // 2


