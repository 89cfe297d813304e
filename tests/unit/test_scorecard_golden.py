"""Unit tests for scorecard serialisation and the golden regression gate.

These run on hand-built scorecards (no simulation), so every branch of
the tolerance/direction/coverage logic is exercised cheaply; the
end-to-end gate (real suite, real golden file, CLI exit codes) lives in
``tests/integration/test_score_cli.py``.
"""

import pytest

from repro.errors import ConfigError
from repro.scenarios import (
    GATED_KEYS,
    METRICS,
    Scorecard,
    compare_scorecards,
    default_baseline_path,
)
from repro.scenarios.golden import MetricSpec


def _card(**cells) -> Scorecard:
    """One-scenario scorecard; cells maps policy -> metrics dict (or None)."""
    return Scorecard(suite="quick", policies=tuple(cells),
                     scenarios={"s1": dict(cells)})


_BASE_METRICS = {
    "service_cost": 1000.0, "deaths": 0.0, "charger_utilization": 0.5,
    "replan_count": 3.0, "cache_hit_rate": 0.4,
}


class TestMetricSpec:
    def test_budget_is_max_of_abs_and_rel(self):
        spec = MetricSpec("m", "m", "lower", rel_tol=0.02, abs_tol=1.0)
        assert spec.budget(1000.0) == pytest.approx(20.0)
        assert spec.budget(10.0) == pytest.approx(1.0)

    def test_worse_by_respects_direction(self):
        lower = MetricSpec("m", "m", "lower")
        higher = MetricSpec("m", "m", "higher")
        assert lower.worse_by(110.0, 100.0) == pytest.approx(10.0)
        assert higher.worse_by(110.0, 100.0) == pytest.approx(-10.0)

    def test_gated_keys_are_the_gated_subset(self):
        assert GATED_KEYS == tuple(m.key for m in METRICS if m.gated)
        assert "replan_latency_p99_ms" not in GATED_KEYS
        assert "service_cost" in GATED_KEYS


class TestCompare:
    def test_identical_cards_have_no_regressions(self):
        card = _card(mtd=dict(_BASE_METRICS))
        regs, improved = compare_scorecards(card, card)
        assert regs == [] and improved == []

    def test_worse_cost_past_tolerance_regresses(self):
        base = _card(mtd=dict(_BASE_METRICS))
        cur = _card(mtd={**_BASE_METRICS, "service_cost": 1030.0})  # +3% > 2%
        regs, _ = compare_scorecards(cur, base)
        assert [(r.scenario, r.policy, r.metric) for r in regs] == \
            [("s1", "mtd", "service_cost")]
        assert regs[0].drift == pytest.approx(30.0)
        assert "lower is better" in regs[0].describe()

    def test_drift_within_tolerance_passes(self):
        base = _card(mtd=dict(_BASE_METRICS))
        cur = _card(mtd={**_BASE_METRICS, "service_cost": 1015.0})  # +1.5%
        regs, improved = compare_scorecards(cur, base)
        assert regs == [] and improved == []

    def test_single_extra_death_regresses(self):
        """deaths has zero tolerance: one extra death fails the gate."""
        base = _card(mtd=dict(_BASE_METRICS))
        cur = _card(mtd={**_BASE_METRICS, "deaths": 1.0})
        regs, _ = compare_scorecards(cur, base)
        assert [r.metric for r in regs] == ["deaths"]

    def test_higher_is_better_direction(self):
        base = _card(mtd=dict(_BASE_METRICS))
        worse = _card(mtd={**_BASE_METRICS, "charger_utilization": 0.4})
        better = _card(mtd={**_BASE_METRICS, "charger_utilization": 0.6})
        regs, _ = compare_scorecards(worse, base)
        assert [r.metric for r in regs] == ["charger_utilization"]
        regs, improved = compare_scorecards(better, base)
        assert regs == []
        assert any("charger_utilization" in note for note in improved)

    def test_improvements_reported_not_fatal(self):
        base = _card(mtd=dict(_BASE_METRICS))
        cur = _card(mtd={**_BASE_METRICS, "service_cost": 900.0})
        regs, improved = compare_scorecards(cur, base)
        assert regs == []
        assert len(improved) == 1 and "improved" in improved[0]

    def test_lost_cell_coverage_regresses(self):
        base = _card(mtd=dict(_BASE_METRICS))
        cur = _card(mtd=None)
        regs, _ = compare_scorecards(cur, base)
        assert len(regs) == 1 and regs[0].metric == "*"
        assert "coverage lost" in regs[0].describe()

    def test_lost_metric_coverage_regresses(self):
        base = _card(mtd=dict(_BASE_METRICS))
        gone = {**_BASE_METRICS, "cache_hit_rate": None}
        regs, _ = compare_scorecards(_card(mtd=gone), base)
        assert [r.metric for r in regs] == ["cache_hit_rate"]

    def test_new_cells_are_additions_not_regressions(self):
        base = _card(mtd=dict(_BASE_METRICS))
        cur = Scorecard(suite="quick", policies=("mtd", "greedy"), scenarios={
            "s1": {"mtd": dict(_BASE_METRICS), "greedy": dict(_BASE_METRICS)},
            "s2": {"mtd": dict(_BASE_METRICS)}})
        regs, _ = compare_scorecards(cur, base)
        assert regs == []

    def test_baseline_none_metric_is_skipped(self):
        """Metrics undefined at blessing time (e.g. cache rate of a
        non-planning policy) never gate."""
        base = _card(greedy={**_BASE_METRICS, "cache_hit_rate": None})
        cur = _card(greedy={**_BASE_METRICS, "cache_hit_rate": 0.9})
        regs, _ = compare_scorecards(cur, base)
        assert regs == []


class TestSerialisation:
    def test_save_load_round_trip(self, tmp_path):
        card = Scorecard(suite="quick", policies=("mtd", "greedy"), scenarios={
            "s1": {"mtd": dict(_BASE_METRICS), "greedy": None}})
        path = card.save(tmp_path / "SCORECARD.json")
        restored = Scorecard.load(path)
        assert restored.suite == card.suite
        assert restored.policies == card.policies
        assert restored.scenarios == card.scenarios
        assert restored.n_cells == 1

    def test_malformed_document_raises_config_error(self):
        with pytest.raises(ConfigError, match="malformed scorecard"):
            Scorecard.from_dict({"suite": "quick"})

    def test_gated_view_strips_ungated_metrics(self):
        full = {**_BASE_METRICS, "replan_latency_p99_ms": 12.5}
        card = _card(mtd=full, greedy=None)
        view = card.gated_view(GATED_KEYS)
        assert set(view["s1"]["mtd"]) == set(GATED_KEYS) & set(full)
        assert view["s1"]["greedy"] is None

    def test_default_baseline_path(self):
        assert str(default_baseline_path("quick")).endswith(
            "golden/SCORECARD.quick.json")

    def test_default_baseline_path_ignores_working_directory(self, tmp_path,
                                                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert default_baseline_path("quick").exists()
