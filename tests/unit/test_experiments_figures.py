"""Unit tests for :mod:`repro.experiments.figures` (registry structure only —
the actual panel reproductions run in ``benchmarks/``)."""

import pytest

from repro.errors import ConfigError
from repro.experiments.figures import FIGURES, get_figure

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
