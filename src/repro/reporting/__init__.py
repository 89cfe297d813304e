"""Result presentation: ASCII tables, CSV export, the paper-vs-measured
markdown panels, scorecard renderings and simulation timelines."""

from repro.reporting.csvio import sweep_to_csv, write_csv
from repro.reporting.experiments_md import (
    experiments_markdown,
    figure_markdown,
    headline_pair,
)
from repro.reporting.scorecard import (
    save_scorecard_svg,
    scorecard_markdown,
    scorecard_svg,
)
from repro.reporting.svg import network_svg, save_network_svg
from repro.reporting.table import format_table
from repro.reporting.timeline import cost_histogram, dispatch_timeline, run_digest

__all__ = [
    "cost_histogram",
    "dispatch_timeline",
    "experiments_markdown",
    "figure_markdown",
    "format_table",
    "headline_pair",
    "network_svg",
    "run_digest",
    "save_network_svg",
    "save_scorecard_svg",
    "scorecard_markdown",
    "scorecard_svg",
    "sweep_to_csv",
    "write_csv",
]
