"""The instrumentation context threaded through every planning layer.

:class:`Instrumentation` aggregates three cheap primitives plus a trace:

* **counters** — monotonically accumulated named totals (:meth:`incr`);
* **value series** — running count/total/min/max of a named measurement
  (:meth:`observe`), e.g. per-scheduling tour lengths;
* **timers / spans** — :meth:`span` returns a context manager that times a
  scoped block on the monotonic clock and files the result both under a
  named timer and as a :class:`~repro.obs.trace.TraceEvent`.

Every public entry point of the library accepts an optional instrumentation
argument defaulting to ``None``; :func:`ensure` maps ``None`` to the
module-level :data:`NULL` singleton, a :class:`NullInstrumentation` whose
methods are all no-ops. Callers therefore never branch on "is profiling
on?" — they call the hooks unconditionally, and the disabled path costs one
attribute lookup and an empty method call. Hot inner loops keep their
hook-call count per *algorithm invocation* (not per iteration) so the
disabled overhead stays within noise (the ``bench_scaling`` guard measures
exactly this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from repro.obs.quantile import QuantileSketch
from repro.obs.trace import BEGIN, EVENT, SPAN, TraceEvent, write_jsonl

__all__ = ["RunningStat", "StatsSnapshot", "Instrumentation",
           "NullInstrumentation", "NULL", "ensure", "trim_trace"]


class RunningStat:
    """Count / total / min / max of a stream of values (no storage)."""

    __slots__ = ("count", "total", "vmin", "vmax")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")

    def add(self, value: float, count: int = 1) -> None:
        """Record ``value`` as ``count`` equal samples."""
        v = float(value)
        self.count += count
        self.total += v * count
        if v < self.vmin:
            self.vmin = v
        if v > self.vmax:
            self.vmax = v

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "RunningStat") -> None:
        """Fold another stat into this one (exact for count/total/min/max)."""
        self.count += other.count
        self.total += other.total
        if other.vmin < self.vmin:
            self.vmin = other.vmin
        if other.vmax > self.vmax:
            self.vmax = other.vmax

    def as_tuple(self) -> tuple[int, float, float, float]:
        """Picklable ``(count, total, min, max)`` form (snapshot encoding)."""
        return (self.count, self.total, self.vmin, self.vmax)

    @classmethod
    def from_tuple(cls, data: tuple[int, float, float, float]) -> "RunningStat":
        stat = cls()
        stat.count, stat.total, stat.vmin, stat.vmax = data
        return stat

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RunningStat(count={self.count}, total={self.total:.6g}, "
                f"min={self.vmin:.6g}, max={self.vmax:.6g})")


@dataclass(frozen=True)
class StatsSnapshot:
    """A picklable, mergeable view of one instrumentation context.

    Produced by :meth:`Instrumentation.snapshot` and consumed by
    :meth:`Instrumentation.merge`. This is the unit the parallel experiment
    executor ships back from worker processes: each worker collects into its
    own context, snapshots it, and the parent folds the snapshots in (a
    deterministic order — the executor merges by topology index).

    ``timers`` and ``series`` are encoded as ``(count, total, min, max)``
    tuples rather than live :class:`RunningStat` objects so the payload is
    plain data.
    """

    counters: dict[str, float] = field(default_factory=dict)
    timers: dict[str, tuple[int, float, float, float]] = field(default_factory=dict)
    series: dict[str, tuple[int, float, float, float]] = field(default_factory=dict)
    events: tuple[TraceEvent, ...] = ()
    #: Last observed value per series name (gauge semantics; see obs.live).
    gauges: dict[str, float] = field(default_factory=dict)
    #: Timer name -> encoded :class:`~repro.obs.quantile.QuantileSketch`.
    sketches: dict[str, dict] = field(default_factory=dict)


class _Span:
    """Context manager produced by :meth:`Instrumentation.span`."""

    __slots__ = ("_obs", "name", "attrs", "_start", "_mark", "_id")

    def __init__(self, obs: "Instrumentation", name: str, mark: bool,
                 attrs: dict[str, Any]) -> None:
        self._obs = obs
        self.name = name
        self.attrs = attrs
        self._start = 0.0
        self._mark = mark
        self._id = 0

    def set(self, **attrs: Any) -> None:
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        self._start = perf_counter()
        obs = self._obs
        obs.active[self.name] = obs.active.get(self.name, 0) + 1
        if self._mark:
            self._id = obs._begin_span(self.name, self._start, self.attrs)
        return self

    def __exit__(self, *exc: object) -> bool:
        obs = self._obs
        left = obs.active.get(self.name, 0) - 1
        if left > 0:
            obs.active[self.name] = left
        else:
            obs.active.pop(self.name, None)
        obs._record_span(self.name, self._start,
                         perf_counter() - self._start, self.attrs,
                         span_id=self._id)
        return False


class _NullSpan:
    """Shared no-op span handed out by the disabled context."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Instrumentation:
    """An enabled instrumentation context (collects everything).

    Attributes
    ----------
    counters:
        Name -> accumulated float total.
    timers:
        Span name -> :class:`RunningStat` over durations (seconds).
    series:
        Observation name -> :class:`RunningStat` over observed values.
    events:
        The trace, in record-completion order (spans append on exit).
    """

    enabled: bool = True

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.timers: dict[str, RunningStat] = {}
        self.series: dict[str, RunningStat] = {}
        self.events: list[TraceEvent] = []
        #: Last observed value per series name (gauge reading; obs.live).
        self.gauges: dict[str, float] = {}
        #: Timer name -> mergeable duration sketch (quantiles; obs.live).
        self.sketches: dict[str, QuantileSketch] = {}
        #: Span name -> currently-open count (marked and unmarked spans).
        self.active: dict[str, int] = {}
        self._t0 = perf_counter()
        self._span_seq = 0
        # Span ids whose BEGIN marker was trimmed away while the span was
        # still open; their eventual end record is suppressed so dumped
        # traces never contain an unpairable half (see trim_trace).
        self._muted_spans: set[int] = set()

    # ------------------------------------------------------------- primitives
    def incr(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` (creating it at 0)."""
        self.counters[name] = self.counters.get(name, 0.0) + float(value)

    def observe(self, name: str, value: float, count: int = 1) -> None:
        """Record ``count`` equal samples of the value series ``name``."""
        stat = self.series.get(name)
        if stat is None:
            stat = self.series[name] = RunningStat()
        stat.add(value, count)
        self.gauges[name] = float(value)

    def span(self, name: str, _mark: bool = False, **attrs: Any) -> _Span:
        """A context manager timing a scoped block under timer ``name``.

        ``_mark=True`` additionally files a ``BEGIN`` trace marker on entry
        (paired with the span record by a shared ``span`` id attribute), so
        dumped traces show requests that were still in flight. Long-running
        request loops (the serve request handler) opt in; library spans stay
        single-record.
        """
        return _Span(self, name, _mark, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """File an instantaneous trace event."""
        self.events.append(TraceEvent(
            name=name, kind=EVENT, t=perf_counter() - self._t0,
            attrs=attrs))

    # ----------------------------------------------------------- aggregation
    def snapshot(self) -> StatsSnapshot:
        """Freeze the current state into a picklable :class:`StatsSnapshot`."""
        return StatsSnapshot(
            counters=dict(self.counters),
            timers={k: v.as_tuple() for k, v in self.timers.items()},
            series={k: v.as_tuple() for k, v in self.series.items()},
            events=tuple(self.events),
            gauges=dict(self.gauges),
            sketches={k: v.to_dict() for k, v in self.sketches.items()},
        )

    def merge(self, snap: StatsSnapshot) -> None:
        """Fold a snapshot (e.g. from a worker process) into this context.

        Counters add, timers/series merge their running stats, and the
        snapshot's trace events are appended in their recorded order. Span
        timestamps stay relative to the *producing* context's clock; the
        counters and stats are exact regardless.
        """
        for name, value in snap.counters.items():
            self.counters[name] = self.counters.get(name, 0.0) + value
        for name, data in snap.timers.items():
            stat = self.timers.get(name)
            if stat is None:
                stat = self.timers[name] = RunningStat()
            stat.merge(RunningStat.from_tuple(data))
        for name, data in snap.series.items():
            stat = self.series.get(name)
            if stat is None:
                stat = self.series[name] = RunningStat()
            stat.merge(RunningStat.from_tuple(data))
        self.gauges.update(snap.gauges)
        for name, encoded in snap.sketches.items():
            incoming = QuantileSketch.from_dict(encoded)
            sketch = self.sketches.get(name)
            if sketch is None:
                self.sketches[name] = incoming
            else:
                sketch.merge(incoming)
        self.events.extend(snap.events)

    # --------------------------------------------------------------- outputs
    def spans(self, name: str | None = None) -> list[TraceEvent]:
        """All span records, optionally filtered by name."""
        return [e for e in self.events
                if e.kind == SPAN and (name is None or e.name == name)]

    def stats_table(self) -> str:
        """Human-readable table of counters, timers and value series."""
        from repro.obs.report import stats_table

        return stats_table(self)

    def write_trace(self, path: str) -> Any:
        """Dump the trace as JSONL; returns the written path."""
        return write_jsonl(self.events, path)

    # -------------------------------------------------------------- internals
    def _begin_span(self, name: str, start: float,
                    attrs: dict[str, Any]) -> int:
        """File a BEGIN marker for a ``_mark=True`` span; returns its id."""
        self._span_seq += 1
        span_id = self._span_seq
        self.events.append(TraceEvent(
            name=name, kind=BEGIN, t=start - self._t0,
            attrs={**attrs, "span": span_id}))
        return span_id

    def _record_span(self, name: str, start: float, dur: float,
                     attrs: dict[str, Any], span_id: int = 0) -> None:
        stat = self.timers.get(name)
        if stat is None:
            stat = self.timers[name] = RunningStat()
        stat.add(dur)
        sketch = self.sketches.get(name)
        if sketch is None:
            sketch = self.sketches[name] = QuantileSketch()
        sketch.add(dur)
        if span_id:
            if span_id in self._muted_spans:
                # The BEGIN marker was trimmed while this span was open:
                # suppress the end record so the trace stays pairable (the
                # duration is already in the timer and the sketch).
                self._muted_spans.discard(span_id)
                return
            attrs = {**attrs, "span": span_id}
        self.events.append(TraceEvent(
            name=name, kind=SPAN, t=start - self._t0, dur=dur, attrs=attrs))


class NullInstrumentation(Instrumentation):
    """The disabled context: every hook is a no-op.

    A singleton (:data:`NULL`) stands in whenever a caller passes ``None``,
    so instrumented code never branches. The collections stay permanently
    empty.
    """

    enabled = False

    def incr(self, name: str, value: float = 1.0) -> None:
        return None

    def observe(self, name: str, value: float, count: int = 1) -> None:
        return None

    def span(self, name: str, _mark: bool = False,  # type: ignore[override]
             **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def merge(self, snap: StatsSnapshot) -> None:
        return None


def trim_trace(obs: Instrumentation, max_events: int) -> int:
    """Trim ``obs.events`` to at most ``max_events``, on span-pair boundaries.

    The naive ``del events[:excess]`` can orphan marked spans: a span's
    ``BEGIN`` marker falls inside the trimmed prefix while its end record
    survives (or arrives later), leaving an unpairable half in dumped traces.
    This trims the oldest records but keeps pairs intact:

    * end records whose BEGIN was just trimmed are dropped too;
    * spans still *open* at trim time have their future end record
      suppressed (via ``obs._muted_spans``) when it is eventually filed.

    Every dropped record bumps the ``trace.truncated`` counter. Returns the
    number of events dropped (0 when under the limit).
    """
    events = obs.events
    excess = len(events) - max_events
    if excess <= 0:
        return 0
    trimmed_begins = {e.attrs.get("span") for e in events[:excess]
                      if e.kind == BEGIN}
    trimmed_begins.discard(None)
    del events[:excess]
    dropped = excess
    if trimmed_begins:
        still_open = set(trimmed_begins)
        kept: list[TraceEvent] = []
        for e in events:
            if e.kind == SPAN and e.attrs.get("span") in trimmed_begins:
                still_open.discard(e.attrs["span"])
                dropped += 1
                continue
            kept.append(e)
        events[:] = kept
        obs._muted_spans.update(still_open)
    obs.incr("trace.truncated", dropped)
    return dropped


#: Shared disabled context; what ``instrumentation=None`` resolves to.
NULL = NullInstrumentation()


def ensure(obs: Instrumentation | None) -> Instrumentation:
    """Coerce an optional instrumentation argument to a usable context."""
    return NULL if obs is None else obs
