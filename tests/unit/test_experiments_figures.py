"""Unit tests for :mod:`repro.experiments.figures`: the registry's
structure and its shape checks, evaluated on stub sweeps. The panel
reproductions themselves run in ``benchmarks/bench_figures.py``."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments.figures import FIGURES, FigureSpec, get_figure

PAPER_PANELS = ["fig1a", "fig1b", "fig2a", "fig2b", "fig3", "fig4", "fig5", "fig6"]


class TestRegistry:
    def test_all_paper_panels_registered(self):
        for fid in PAPER_PANELS:
            assert fid in FIGURES, f"missing paper panel {fid}"

    def test_ablations_registered(self):
        for fid in ["abl-refine", "abl-q", "abl-baselines"]:
            assert fid in FIGURES

    def test_get_figure_unknown_raises_with_catalogue(self):
        with pytest.raises(ConfigError, match="fig1a"):
            get_figure("fig99")

    def test_specs_are_well_formed(self):
        for fid, spec in FIGURES.items():
            assert spec.figure_id == fid
            assert spec.values, f"{fid} has no sweep values"
            assert set(spec.values) <= set(spec.values_full) or len(
                spec.values_full) >= len(spec.values)
            assert hasattr(spec.base, spec.parameter)
            assert spec.paper_claim

    def test_variable_panels_use_var_algorithm(self):
        for fid in ["fig3", "fig4", "fig5", "fig6"]:
            spec = FIGURES[fid]
            assert spec.base.variable
            assert "mtd-var" in spec.base.algorithms

    def test_fixed_panels_use_offline_algorithm(self):
        for fid in ["fig1a", "fig1b", "fig2a", "fig2b"]:
            spec = FIGURES[fid]
            assert not spec.base.variable
            assert "mtd" in spec.base.algorithms

    def test_distribution_assignment(self):
        assert FIGURES["fig1a"].base.distribution == "linear"
        assert FIGURES["fig1b"].base.distribution == "random"
        assert FIGURES["fig2b"].base.distribution == "random"


class TestRunFigure:
    def test_tiny_run(self):
        # Shrink fig1a to a smoke test: one point, one tiny topology.
        spec = get_figure("fig1a")
        small = spec.base.with_(n_topologies=1, horizon=60.0)
        from repro.experiments.sweeps import sweep

        result = sweep(small, "n", [20])
        assert result.series("mtd")[1][0] > 0


class TestPanelPoints:
    def test_one_spec_per_value_with_the_parameter_overridden(self):
        spec = get_figure("fig2a")
        points = spec.points(n_topologies=2)
        assert [p.config.tau_max for p in points] == list(spec.values)
        for p in points:
            assert p.name == "fig2a"
            assert p.config == spec.base.with_(n_topologies=2,
                                               tau_max=p.config.tau_max)
        assert len(spec.points(full=True)) == len(spec.values_full)

    def test_points_are_not_registered_scenarios(self):
        from repro.scenarios import SCENARIOS

        assert not set(SCENARIOS) & set(FIGURES)

    def test_override_of_the_swept_parameter_rejected(self):
        with pytest.raises(ConfigError, match="sweeps 'n'"):
            get_figure("fig1a").points(overrides={"n": 10})


class _StubSweep:
    """What a shape check reads of a finished sweep: the swept parameter and
    values, the algorithms, and each algorithm's per-value mean cost and
    deaths."""

    def __init__(self, parameter, values, costs, deaths=None):
        self.parameter = parameter
        self.values = tuple(values)
        self.algorithms = tuple(costs)
        self._costs = {a: np.asarray(c, dtype=float) for a, c in costs.items()}
        self._deaths = deaths or {}

    def series(self, algorithm):
        return np.asarray(self.values, dtype=float), self._costs[algorithm]

    def ratio_series(self, num, den):
        return self._costs[num] / self._costs[den]

    def deaths(self, algorithm):
        return np.asarray(self._deaths.get(algorithm, [0] * len(self.values)))

    def without(self, value):
        keep = [i for i, v in enumerate(self.values) if v != value]
        return _StubSweep(
            self.parameter, [self.values[i] for i in keep],
            {a: c[keep] for a, c in self._costs.items()},
            {a: [d[i] for i in keep] for a, d in self._deaths.items()})


#: fig5 as EXPERIMENTS.md reports it at 3 topologies per point.
_FIG5 = {"mtd-var": [2045695.0, 1783289.3, 1574027.4, 1289528.2, 1173882.0],
         "greedy": [2478844.7, 2496584.0, 2495920.8, 2505426.5, 2498922.1]}


def _fig5(deaths=None, **costs):
    return _StubSweep("slot_duration", (1, 2, 4, 10, 20), {**_FIG5, **costs}, deaths)


class TestShapeChecks:
    def test_every_panel_has_a_check(self):
        (field,) = [f for f in dataclasses.fields(FigureSpec) if f.name == "check"]
        assert field.default is dataclasses.MISSING
        for fid, spec in FIGURES.items():
            assert callable(spec.check), fid

    def test_empty_when_the_claims_hold(self):
        assert FIGURES["fig5"].check(_fig5()) == []

    def test_names_the_broken_claim(self):
        at_1 = [0.71 * _FIG5["greedy"][0]] + _FIG5["mtd-var"][1:]
        assert FIGURES["fig5"].check(_fig5(**{"mtd-var": at_1})) == [
            "mean mtd-var/greedy at slot_duration=1 > 0.75 (got 0.71)"]

    def test_skips_claims_about_unvisited_values(self):
        at_1 = [0.71 * _FIG5["greedy"][0]] + _FIG5["mtd-var"][1:]
        assert FIGURES["fig5"].check(_fig5(**{"mtd-var": at_1}).without(1)) == []
        one_value = _StubSweep("slot_duration", (10,),
                               {"mtd-var": [1.0], "greedy": [2.0]})
        assert FIGURES["fig5"].check(one_value) == []

    def test_deaths_break_a_perpetual_panel(self):
        sweep = _fig5(deaths={"greedy": [0, 0, 3, 0, 0]})
        assert FIGURES["fig5"].check(sweep) == ["deaths == 0 (got 3)"]

    def test_failure_sweep_deaths_grow_without_a_cliff(self):
        rates = (0.0, 0.005, 0.01, 0.02)
        costs = {"mtd": [1083421.2, 1054331.6, 1030518.7, 984039.4],
                 "greedy": [1850382.7, 1972311.6, 1955726.3, 1898530.0]}
        deaths = {"mtd": [0, 966, 1788, 3166], "greedy": [0, 931, 1785, 3353]}
        check = FIGURES["abl-failures"].check
        assert check(_StubSweep("failure_rate", rates, costs, deaths)) == []
        cliff = {"mtd": [0, 966, 1788, 9000], "greedy": deaths["greedy"]}
        (broken,) = check(_StubSweep("failure_rate", rates, costs, cliff))
        assert broken.startswith("largest step ratio of deaths per unit failure_rate <= 1.25")
        at_0 = {"mtd": [1, 966, 1788, 3166], "greedy": deaths["greedy"]}
        assert check(_StubSweep("failure_rate", rates, costs, at_0)) == [
            "deaths at failure_rate=0 == 0 (got 1)"]
