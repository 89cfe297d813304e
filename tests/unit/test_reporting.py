"""Unit tests for :mod:`repro.reporting`."""

import csv

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.sweeps import sweep
from repro.reporting.csvio import sweep_to_csv, write_csv
from repro.reporting.table import format_table


@pytest.fixture(scope="module")
def tiny_sweep():
    cfg = ExperimentConfig(n=20, horizon=60.0, n_topologies=2, seed=4,
                           algorithms=("mtd", "greedy"))
    return sweep(cfg, "n", [20, 25])


class TestFormatTable:
    def test_alignment_and_precision(self):
        out = format_table(["a", "bb"], [[1, 2.3456], [10, 7.1]], precision=2)
        lines = out.splitlines()
        assert len(lines) == 4  # header, separator, two rows
        assert "2.35" in out and "7.10" in out

    def test_indent(self):
        out = format_table(["x"], [[1]], indent="  ")
        assert all(line.startswith("  ") for line in out.splitlines())

    def test_wide_cells_extend_columns(self):
        out = format_table(["x"], [["averyverylongvalue"]])
        assert "averyverylongvalue" in out

    def test_non_float_values_passthrough(self):
        out = format_table(["x", "y"], [["abc", 3]])
        assert "abc" in out


class TestCsv:
    def test_write_csv_roundtrip(self, tmp_path):
        path = write_csv(tmp_path / "sub" / "out.csv", ["a", "b"], [[1, 2], [3, 4]])
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]

    def test_sweep_to_csv_columns(self, tiny_sweep, tmp_path):
        path = sweep_to_csv(tiny_sweep, tmp_path / "sweep.csv")
        with open(path) as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        assert header[0] == "n"
        assert "mtd_mean_cost" in header and "greedy_deaths" in header
        assert len(rows) == 3  # header + 2 sweep values
