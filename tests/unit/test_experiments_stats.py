"""Unit tests for :mod:`repro.experiments.stats`."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments.stats import ConfidenceInterval, mean_ci, paired_ratio_ci


class TestMeanCi:
    def test_known_small_sample(self):
        # n=4, mean 2.5, sd ~1.29: t(3)=3.182, sem=0.6455 -> h=2.054.
        ci = mean_ci(np.array([1.0, 2.0, 3.0, 4.0]))
        assert ci.mean == pytest.approx(2.5)
        assert ci.half_width == pytest.approx(3.182 * np.std([1, 2, 3, 4], ddof=1)
                                              / 2.0, rel=1e-3)
        assert ci.n == 4

    def test_interval_brackets_mean(self):
        rng = np.random.default_rng(0)
        ci = mean_ci(rng.normal(10.0, 2.0, size=50))
        assert ci.lower < ci.mean < ci.upper
        assert ci.contains(ci.mean)

    def test_single_sample_degenerate(self):
        ci = mean_ci(np.array([5.0]))
        assert (ci.mean, ci.lower, ci.upper, ci.n) == (5.0, 5.0, 5.0, 1)

    def test_zero_variance(self):
        ci = mean_ci(np.full(10, 3.0))
        assert ci.half_width == 0.0

    def test_large_sample_uses_normal_quantile(self):
        x = np.arange(100, dtype=float)
        ci = mean_ci(x)
        sem = x.std(ddof=1) / 10.0
        assert ci.half_width == pytest.approx(1.96 * sem, rel=1e-3)

    def test_coverage_monte_carlo(self):
        """~95% of intervals should contain the true mean."""
        rng = np.random.default_rng(7)
        hits = sum(
            mean_ci(rng.normal(0.0, 1.0, size=10)).contains(0.0)
            for _ in range(400))
        assert 0.90 <= hits / 400 <= 0.99

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            mean_ci(np.array([]))

    def test_str(self):
        assert "95% CI" in str(mean_ci(np.array([1.0, 2.0])))


class TestPairedRatioCi:
    def test_constant_ratio_zero_width(self):
        num = np.array([10.0, 20.0, 30.0])
        den = num * 2.0
        ci = paired_ratio_ci(num, den)
        assert ci.mean == pytest.approx(0.5)
        assert ci.half_width == pytest.approx(0.0)

    def test_pairing_tightens_vs_unpaired(self):
        # Costs vary hugely across topologies; ratio is nearly constant.
        rng = np.random.default_rng(1)
        den = rng.uniform(1e5, 1e6, size=20)
        num = den * rng.normal(0.6, 0.01, size=20)
        paired = paired_ratio_ci(num, den)
        assert paired.half_width < 0.02
        assert 0.55 < paired.mean < 0.65

    def test_rejects_mismatch_and_bad_denominator(self):
        with pytest.raises(ConfigError):
            paired_ratio_ci(np.ones(3), np.ones(4))
        with pytest.raises(ConfigError):
            paired_ratio_ci(np.ones(2), np.array([1.0, 0.0]))


class TestCellIntegration:
    def test_cell_ratio_ci(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_cell

        table = run_cell(ExperimentConfig(n=20, horizon=80.0, n_topologies=3,
                                          seed=5, algorithms=("mtd", "greedy")))
        (spec,) = table.specs
        mtd = table.column(spec, "mtd", "cost")
        ci = paired_ratio_ci(mtd, table.column(spec, "greedy", "cost"))
        assert isinstance(ci, ConfidenceInterval)
        assert 0 < ci.lower <= ci.mean <= ci.upper
        cost_ci = mean_ci(mtd)
        assert cost_ci.n == 3
