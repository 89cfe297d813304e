"""Unit tests for :mod:`repro.experiments.runner` and sweeps.

Tiny cells only (n=25, short horizon) — the full-scale runs live in
``benchmarks/``.
"""

import csv
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments.config import ExperimentConfig, ScenarioSpec
from repro.experiments.runner import make_policy, run_cell, run_table
from repro.experiments.sweeps import sweep
from repro.network.builder import build_paper_network
from repro.reporting.csvio import sweep_to_csv

TINY = ExperimentConfig(n=25, horizon=100.0, n_topologies=2, seed=9,
                        algorithms=("mtd", "greedy"))


def _cell(table):
    """The single spec of a ``run_cell`` table."""
    (spec,) = table.specs
    return spec


class TestRunCell:
    def test_shapes_and_order(self):
        table = run_cell(TINY)
        spec = _cell(table)
        assert spec.config == TINY
        assert [alg for _, alg in table.rows] == ["mtd", "greedy"]
        for alg in TINY.algorithms:
            assert table.column(spec, alg, "cost").shape == (2,)
            assert table.column(spec, alg, "deaths").shape == (2,)
            assert np.all(table.column(spec, alg, "cost") > 0)

    def test_no_deaths_on_paper_defaults(self):
        table = run_cell(TINY)
        assert all(row.deaths == 0 for rows in table.rows.values()
                   for row in rows)

    def test_reproducible(self):
        a = run_cell(TINY)
        b = run_cell(TINY)
        np.testing.assert_array_equal(a.column(_cell(a), "mtd", "cost"),
                                      b.column(_cell(b), "mtd", "cost"))

    def test_mtd_beats_greedy_on_linear(self):
        table = run_cell(TINY.with_(n_topologies=3))
        metrics = {alg: table.metrics(_cell(table), alg)
                   for alg in ("mtd", "greedy")}
        assert (metrics["mtd"]["service_cost"]
                < metrics["greedy"]["service_cost"])

    def test_by_name_unknown_raises(self):
        table = run_cell(TINY)
        with pytest.raises(KeyError, match="nope"):
            table.runs(_cell(table), "nope")

    def test_variable_cell_runs(self):
        cfg = TINY.with_(variable=True, algorithms=("mtd-var", "greedy"),
                         slot_duration=10.0)
        table = run_cell(cfg)
        assert all(row.deaths == 0 for rows in table.rows.values()
                   for row in rows)

    def test_mean_and_std(self, tmp_path):
        """The CSV's mean cost and deaths are the table's metric fold; its
        std is the cost column's sample std."""
        result = sweep(TINY, "n", [25])
        point = result.points[0]
        costs = result.costs(point, "mtd")
        fold = result.table.metrics(point, "mtd")
        with open(sweep_to_csv(result, tmp_path / "s.csv")) as fh:
            row = dict(zip(*csv.reader(fh)))
        assert float(row["mtd_mean_cost"]) == fold["service_cost"]
        assert fold["service_cost"] == pytest.approx(costs.mean())
        assert float(row["mtd_std_cost"]) == pytest.approx(costs.std(ddof=1))
        assert int(row["mtd_deaths"]) == fold["deaths"]


class TestMakePolicy:
    @pytest.fixture(scope="class")
    def net(self):
        return build_paper_network(n=20, q=3, seed=1)

    @pytest.mark.parametrize("name", ["mtd", "mtd+2opt", "greedy", "naive",
                                      "periodic"])
    def test_known_fixed_algorithms(self, name, net):
        cfg = ExperimentConfig(n=20, q=3, horizon=50.0)
        pol = make_policy(name, cfg, net)
        assert hasattr(pol, "dispatch")

    def test_var_policy(self, net):
        cfg = ExperimentConfig(n=20, q=3, horizon=50.0, variable=True,
                               algorithms=("mtd-var",))
        pol = make_policy("mtd-var", cfg, net)
        assert pol.__class__.__name__ == "MinTotalDistanceVarPolicy"

    def test_unknown_raises(self, net):
        with pytest.raises(ConfigError):
            make_policy("quantum", ExperimentConfig(), net)


class TestSweep:
    def test_series_and_rows(self):
        result = sweep(TINY, "n", [20, 30])
        x, y = result.series("mtd")
        np.testing.assert_array_equal(x, [20, 30])
        assert y.shape == (2,)
        assert len(result.rows()) == 2
        assert result.header()[0] == "n"

    def test_ratio_series(self):
        result = sweep(TINY, "n", [20, 30])
        r = result.ratio_series("mtd", "greedy")
        assert r.shape == (2,) and np.all(r > 0)

    def test_progress_callback(self):
        lines = []
        sweep(TINY, "n", [20], progress=lines.append)
        assert len(lines) == 1 and "n=20" in lines[0]

    def test_empty_values_raises(self):
        with pytest.raises(ConfigError):
            sweep(TINY, "n", [])

    def test_unknown_parameter_raises(self):
        with pytest.raises(ConfigError):
            sweep(TINY, "banana", [1])

    @pytest.mark.parametrize("values", [[20, 20], [20, 20.0]])
    def test_repeated_point_raises(self, values):
        """The table keys rows by point, so equal values cannot both run."""
        with pytest.raises(ConfigError, match="duplicate spec"):
            sweep(TINY, "n", values)

    def test_categorical_series(self):
        """A ``deployment`` sweep's x axis is its labels, unconverted."""
        result = sweep(TINY.with_(n=20), "deployment", ["uniform", "grid"])
        x, y = result.series("mtd")
        assert list(x) == ["uniform", "grid"]
        assert y.shape == (2,) and np.all(y > 0)

    def test_deaths_accessor(self):
        result = sweep(TINY, "n", [20])
        np.testing.assert_array_equal(result.deaths("mtd"), [0])


def _deterministic(row):
    """A RunRow minus its wall-clock replan durations (kept as a count)."""
    return replace(row, replan_durs=len(row.replan_durs))


class TestOneTableTwoRenderings:
    def test_scorecard_and_panel_read_the_same_rows(self, monkeypatch):
        """A scenario scored by ``score_suite`` and the same spec run as a
        one-point panel give identical rows; the scorecard's cells and the
        panel's numbers are the table's one fold of them."""
        from repro.experiments.figures import FigureSpec
        from repro.scenarios import registry, score

        spec = ScenarioSpec("one-table", "tiny fixed-cycle scenario",
                            ExperimentConfig(n=20, q=3, horizon=60.0,
                                             n_topologies=2, seed=3))
        monkeypatch.setitem(registry.SCENARIOS, spec.name, spec)
        monkeypatch.setitem(registry.SUITES, "one-table", registry.SuiteSpec(
            "one-table", "one scenario", scenarios=(spec.name,)))
        tables = []

        def spy(*args, **kwargs):
            tables.append(run_table(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(score, "run_table", spy)
        card = score.score_suite("one-table")
        (scored,) = tables

        panel = FigureSpec(
            figure_id="one-table-panel", title="one point", parameter="n",
            values=(spec.config.n,), values_full=(spec.config.n,),
            base=spec.config.with_(algorithms=("mtd", "greedy")),
            paper_claim="-")
        result = panel.run()
        (point,) = result.points

        assert card.metrics(spec.name, "mtd-var") is None  # fixed cycles
        for policy in ("mtd", "greedy"):
            assert ([_deterministic(r) for r in scored.runs(spec, policy)]
                    == [_deterministic(r) for r in result.table.runs(point, policy)])
            fold = result.table.metrics(point, policy)
            cell = card.metrics(spec.name, policy)
            assert cell["service_cost"] == fold["service_cost"]
            assert cell["deaths"] == fold["deaths"]
            assert result.series(policy)[1][0] == fold["service_cost"]
            assert float(result.deaths(policy)[0]) == fold["deaths"]
