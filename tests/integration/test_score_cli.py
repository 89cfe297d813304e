"""End-to-end acceptance for ``repro score``.

Runs the real quick suite through the CLI: all registered policies over
every named scenario, ``SCORECARD.json`` written, exit 0 against the
checked-in golden, exit 1 when a golden metric is perturbed past
tolerance (the regression-gate acceptance criterion), and the reporting
outputs render.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.io.files import load_json
from repro.scenarios import SCENARIOS, Scorecard

REPO = Path(__file__).resolve().parents[2]
GOLDEN = REPO / "golden" / "SCORECARD.quick.json"


@pytest.fixture(scope="module")
def scored(tmp_path_factory):
    """One real CLI run of the quick suite, gated against the golden."""
    out_dir = tmp_path_factory.mktemp("score")
    out = out_dir / "SCORECARD.json"
    code = main(["score", "--suite", "quick", "--jobs", "2", "--quiet",
                 "--out", str(out), "--baseline", str(GOLDEN),
                 "--markdown", str(out_dir / "scorecard.md"),
                 "--svg", str(out_dir / "scorecard.svg")])
    return code, out_dir, out


def test_golden_scorecard_is_checked_in():
    assert GOLDEN.exists(), "golden/SCORECARD.quick.json must be committed"


def test_exit_zero_against_the_golden(scored):
    code, _, _ = scored
    assert code == 0


def test_scorecard_written_with_full_coverage(scored):
    """>= 5 named scenarios, every registered policy, fixed dimensions."""
    _, _, out = scored
    card = Scorecard.load(out)
    assert len(card.scenarios) >= 5
    assert set(card.scenarios) == set(SCENARIOS)
    assert set(card.policies) >= {"mtd", "mtd-var", "greedy"}
    cell = card.metrics("failure-storm", "mtd")
    assert cell is not None
    assert {"service_cost", "deaths", "charger_utilization",
            "replan_count", "replan_latency_p50_ms",
            "replan_latency_p99_ms", "cache_hit_rate"} <= set(cell)
    # The adaptive policy cannot score on the fixed-cycle scenario.
    assert card.metrics("sparse-wide-area", "mtd-var") is None


def test_perturbed_golden_metric_exits_nonzero(scored, tmp_path):
    """Perturb one golden metric in the better direction so the (unchanged)
    current run reads as a regression: the gate must exit 1."""
    _, _, out = scored
    doc = json.loads(GOLDEN.read_text())
    doc["data"]["scenarios"]["failure-storm"]["mtd"]["service_cost"] *= 0.9
    perturbed = tmp_path / "perturbed.json"
    perturbed.write_text(json.dumps(doc))
    code = main(["score", "--suite", "quick", "--quiet",
                 "--out", str(tmp_path / "SCORECARD.json"),
                 "--baseline", str(perturbed)])
    assert code == 1


def test_update_golden_writes_the_baseline(scored, tmp_path):
    """--update-golden blesses the current run instead of comparing."""
    _, _, out = scored
    baseline = tmp_path / "blessed.json"
    code = main(["score", "--suite", "quick", "--quiet",
                 "--out", str(tmp_path / "SCORECARD.json"),
                 "--baseline", str(baseline), "--update-golden"])
    assert code == 0
    blessed = Scorecard.load(baseline)
    # Wall-clock latency columns differ run to run; everything the gate
    # reads must be identical.
    from repro.scenarios import GATED_KEYS

    assert blessed.gated_view(GATED_KEYS) == \
        Scorecard.load(out).gated_view(GATED_KEYS)


def test_missing_baseline_hints_instead_of_failing(scored, tmp_path):
    """No golden yet -> exit 0 with an update hint (bootstrap path)."""
    code = main(["score", "--suite", "quick", "--quiet",
                 "--out", str(tmp_path / "SCORECARD.json"),
                 "--baseline", str(tmp_path / "nope.json")])
    assert code == 0


def test_envelope_and_reports(scored):
    """The scorecard carries the standard envelope; markdown and SVG
    renderings contain every scenario row."""
    _, out_dir, out = scored
    payload = load_json(out, "scorecard")  # raises on wrong kind
    assert payload["suite"] == "quick"
    md = (out_dir / "scorecard.md").read_text()
    svg = (out_dir / "scorecard.svg").read_text()
    for name in SCENARIOS:
        assert name in md
        assert name in svg
    assert svg.startswith("<svg") and svg.endswith("</svg>")


def test_unknown_suite_and_policy_are_usage_errors(tmp_path, capsys):
    assert main(["score", "--suite", "nope",
                 "--out", str(tmp_path / "s.json")]) == 2
    assert "unknown suite" in capsys.readouterr().err
    assert main(["score", "--suite", "quick", "--policies", "nope",
                 "--out", str(tmp_path / "s.json")]) == 2
    assert "unknown policies" in capsys.readouterr().err
