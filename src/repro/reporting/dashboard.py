"""Live terminal/SVG dashboard over a ``watch`` metric stream.

``repro watch`` feeds every received :class:`~repro.obs.live.WatchFrame`
into a :class:`DashboardState` and renders :func:`render_dashboard` — a
plain-text panel showing fleet-wide request rate, plan-latency quantiles
(from merged sketches, see :mod:`repro.obs.live`), cache-tier hit rates,
per-shard gauges, shard up/down state and recent membership events.
Everything is stdlib: the consumer must run anywhere a terminal does.

:func:`save_dashboard_svg` writes the same panel as a self-contained SVG
(the :mod:`repro.reporting.svg` idiom) for READMEs and CI artifacts.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import Mapping

from repro.obs.live import LiveAggregator, WatchFrame

__all__ = ["DashboardState", "render_dashboard", "dashboard_svg",
           "save_dashboard_svg"]

#: The request-total counter used for the headline rate, first match wins
#: (a fleet router counts ``fleet.requests``; a bare serve node only
#: ``serve.requests``).
_RATE_COUNTERS = ("fleet.requests", "serve.requests")

#: Cache tiers rendered as hit rates: label -> (hit counter, miss counter).
_CACHE_TIERS = (
    ("tours", "plan.cache.tours.hit", "plan.cache.tours.miss"),
    ("forest", "plan.cache.forest.hit", "plan.cache.forest.miss"),
    ("disk", "plan.cache.disk.hits", "plan.cache.disk.misses"),
)

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def _spark(values: list[float], width: int = 16) -> str:
    """A unicode sparkline of the last ``width`` samples."""
    tail = values[-width:]
    if not tail:
        return ""
    top = max(tail)
    if top <= 0:
        return _SPARK_BLOCKS[0] * len(tail)
    return "".join(
        _SPARK_BLOCKS[min(len(_SPARK_BLOCKS) - 1,
                          int(v / top * (len(_SPARK_BLOCKS) - 1) + 0.5))]
        for v in tail)


class DashboardState:
    """Consumer-side fold of a watch stream into renderable state.

    Aggregate frames (from a fleet router) are the view directly; delta
    frames (from a bare serve node) are folded through a local
    :class:`~repro.obs.live.LiveAggregator` first, so the dashboard
    applies the same per-kind merge rules regardless of what it watches.
    """

    def __init__(self, window: int = 32) -> None:
        self._agg = LiveAggregator()
        self.frame: WatchFrame | None = None
        self.started: float | None = None
        self.n_frames = 0
        self.events: deque[dict] = deque(maxlen=8)
        self._history: deque[tuple[float, dict[str, float]]] = \
            deque(maxlen=max(2, window))
        self._rates: deque[float] = deque(maxlen=max(2, window))

    def ingest(self, frame: WatchFrame) -> None:
        if frame.kind == "aggregate":
            view = frame
        else:
            self._agg.ingest(frame)
            view = self._agg.frame(source=frame.source)
            view.seq = frame.seq
        if self.started is None:
            self.started = view.t
        for event in view.events:
            self.events.append(dict(event, t=view.t))
        if self._history:
            t0, c0 = self._history[-1]
            dt = view.t - t0
            if dt > 0:
                name = self.rate_counter()
                self._rates.append(
                    max(0.0, (view.counters.get(name, 0.0)
                              - c0.get(name, 0.0)) / dt))
        self._history.append((view.t, dict(view.counters)))
        self.frame = view
        self.n_frames += 1

    def rate_counter(self) -> str:
        """The counter the headline rps is derived from."""
        counters = self.frame.counters if self.frame else {}
        for name in _RATE_COUNTERS:
            if name in counters:
                return name
        return _RATE_COUNTERS[-1]

    def rps(self) -> float:
        """Requests/second over the sliding window."""
        if len(self._history) < 2:
            return 0.0
        (t0, c0), (t1, c1) = self._history[0], self._history[-1]
        dt = t1 - t0
        if dt <= 0:
            return 0.0
        name = self.rate_counter()
        return max(0.0, (c1.get(name, 0.0) - c0.get(name, 0.0)) / dt)

    def rate_history(self) -> list[float]:
        """Per-frame rps samples (sparkline fodder)."""
        return list(self._rates)


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.1f}"


def _row(label: str, body: str, width: int) -> str:
    return f"{label:<14} {body}"[:width]


def render_dashboard(state: DashboardState, width: int = 96) -> str:
    """The dashboard panel as plain text (one call per frame)."""
    lines: list[str] = []
    frame = state.frame
    if frame is None:
        return "repro watch — waiting for the first frame..."

    uptime = max(0.0, frame.t - (state.started or frame.t))
    head = (f"repro watch — {frame.source}  seq {frame.seq}  "
            f"up {uptime:6.1f}s  frames {state.n_frames}  "
            f"dropped {frame.dropped}")
    lines.append(head[:width])
    lines.append("-" * min(width, len(head)))

    if frame.shards:
        body = "  ".join(f"{name}:{stat}"
                         for name, stat in sorted(frame.shards.items()))
        lines.append(_row("shards", body, width))

    name = state.rate_counter()
    total = frame.counters.get(name, 0.0)
    body = (f"{state.rps():7.1f} rps  {_spark(state.rate_history())}  "
            f"total {total:.0f}  "
            f"coalesced {frame.counters.get('serve.coalesced', 0):.0f}  "
            f"rejected {frame.counters.get('serve.rejected', 0):.0f}  "
            f"failed {frame.counters.get('serve.failed', 0):.0f}")
    lines.append(_row("throughput", body, width))

    for timer in sorted(frame.quantiles):
        q = frame.quantiles[timer]
        body = (f"{timer:<16} n={q.get('count', 0):<7.0f}"
                f"p50 {_fmt_ms(q.get('p50', 0.0)):>8}  "
                f"p90 {_fmt_ms(q.get('p90', 0.0)):>8}  "
                f"p99 {_fmt_ms(q.get('p99', 0.0)):>8}")
        if "mean" in q:
            body += f"  mean {_fmt_ms(q['mean']):>8}"
        lines.append(_row("latency ms" if timer == sorted(frame.quantiles)[0]
                          else "", body, width))

    tiers: list[str] = []
    for label, hit_key, miss_key in _CACHE_TIERS:
        hits = frame.counters.get(hit_key, 0.0)
        lookups = hits + frame.counters.get(miss_key, 0.0)
        if lookups:
            tiers.append(f"{label} {hits:.0f}/{lookups:.0f} "
                         f"({100.0 * hits / lookups:.0f}%)")
    served = frame.counters.get("serve.plan_cache.hit", 0.0)
    if served:
        tiers.append(f"served {served:.0f}")
    if tiers:
        lines.append(_row("cache tiers", "  ".join(tiers), width))

    for gauge in sorted(frame.gauges):
        entry = frame.gauges[gauge]
        if isinstance(entry, Mapping):
            per = entry.get("per_shard", {})
            body = (f"{gauge:<18} max {entry.get('max', 0.0):g}  "
                    + "  ".join(f"{s}={v:g}" for s, v in sorted(per.items())))
        else:  # a bare serve node's flat gauge value
            body = f"{gauge:<18} {entry:g}"
        lines.append(_row("gauges" if gauge == sorted(frame.gauges)[0]
                          else "", body, width))

    if frame.active:
        body = "  ".join(f"{span}={n}"
                         for span, n in sorted(frame.active.items()))
        lines.append(_row("active spans", body, width))

    for event in state.events:
        what = " ".join(f"{k}={v}" for k, v in event.items() if k != "t")
        lines.append(_row("event", what, width))

    return "\n".join(lines)


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def dashboard_svg(state: DashboardState, width: int = 860) -> str:
    """The current panel as a self-contained monospace SVG."""
    text = render_dashboard(state, width=110)
    rows = text.split("\n")
    line_h = 18
    height = line_h * (len(rows) + 2)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#101418"/>',
    ]
    for i, row in enumerate(rows):
        color = "#7fd4a0" if i == 0 else "#d8dee4"
        parts.append(
            f'<text x="12" y="{line_h * (i + 1.5):.0f}" fill="{color}" '
            f'font-family="monospace" font-size="13" xml:space="preserve">'
            f'{_escape(row)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def save_dashboard_svg(state: DashboardState, path: str | Path) -> Path:
    """Write :func:`dashboard_svg` to ``path`` (atomic enough: full rewrite)."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(dashboard_svg(state), encoding="utf-8")
    return out
