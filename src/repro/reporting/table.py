"""Plain-text tables (no third-party dependencies).

Aligned ASCII tables for the instrumentation stats table and the
examples; figure panels render as markdown
(:mod:`repro.reporting.experiments_md`).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

__all__ = ["format_table", "render_timings"]


def _fmt(value: Any, precision: int) -> str:
    if isinstance(value, float):
        text = f"{value:.{precision}f}"
        # Don't round a nonzero value into a "0.0" cell (e.g. a
        # failure-rate sweep over 0.005, 0.01, ...): fall back to %g.
        if value != 0.0 and float(text) == 0.0:
            return f"{value:g}"
        return text
    return str(value)


def format_table(header: Sequence[str], rows: Sequence[Sequence[Any]],
                 *, precision: int = 1, indent: str = "") -> str:
    """Render rows as a column-aligned ASCII table.

    Parameters
    ----------
    header:
        Column names.
    rows:
        Cell values; floats are formatted to ``precision`` decimals.
    precision:
        Decimal places for floats.
    indent:
        Prefix prepended to every output line.
    """
    cells = [[_fmt(v, precision) for v in row] for row in rows]
    widths = [len(h) for h in header]
    for row in cells:
        for i, c in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(c))
            else:
                widths.append(len(c))

    def line(parts: Sequence[str]) -> str:
        padded = [p.rjust(widths[i]) for i, p in enumerate(parts)]
        return indent + "  ".join(padded)

    sep = indent + "  ".join("-" * w for w in widths)
    out = [line(list(header)), sep]
    out.extend(line(row) for row in cells)
    return "\n".join(out)


def render_timings(timers: Mapping[str, Any], *, indent: str = "") -> str:
    """Timing columns for a mapping of span name -> running stat.

    Parameters
    ----------
    timers:
        Typically ``Instrumentation.timers`` — values need ``count``,
        ``total``, ``mean`` and ``vmax`` attributes
        (:class:`repro.obs.instrument.RunningStat`); durations in seconds.
    indent:
        Prefix for every output line.
    """
    rows = [
        [name, s.count, s.total, s.mean * 1e3, s.vmax * 1e3]
        for name, s in sorted(timers.items())
    ]
    return format_table(["span", "calls", "total s", "mean ms", "max ms"],
                        rows, precision=3, indent=indent)
