"""Unit tests for :mod:`repro.reporting.experiments_md` and the report CLI."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import get_figure
from repro.experiments.sweeps import sweep
from repro.reporting.experiments_md import (
    PAPER_PANELS,
    experiments_markdown,
    figure_markdown,
)


@pytest.fixture(scope="module")
def tiny_sweep():
    cfg = ExperimentConfig(n=20, horizon=60.0, n_topologies=2, seed=4,
                           algorithms=("mtd", "greedy"))
    return sweep(cfg, "n", [20, 25])


class TestFigureMarkdown:
    def test_contains_claim_table_and_verdict(self, tiny_sweep):
        spec = get_figure("fig1a")
        md = figure_markdown(spec, tiny_sweep, spec.check(tiny_sweep))
        assert md.startswith("### fig1a")
        assert "Paper claim" in md
        assert "| n |" in md  # markdown table header
        assert "mtd/greedy" in md
        assert "Registered shape check" in md
        assert "no sensor ever ran out of energy" in md

    def test_verdict_line_names_each_broken_claim(self, tiny_sweep):
        spec = get_figure("fig1a")
        assert "*Registered shape check:* **PASS**." in figure_markdown(
            spec, tiny_sweep, [])
        md = figure_markdown(spec, tiny_sweep, ["deaths == 0 (got 3)",
                                                "mean mtd/greedy > 0.75 (got 0.71)"])
        assert ("*Registered shape check:* **FAIL: deaths == 0 (got 3); "
                "mean mtd/greedy > 0.75 (got 0.71)**." in md)

    def test_deaths_are_stated_and_the_check_judges(self, tiny_sweep, monkeypatch):
        """A panel whose deaths are the measured outcome (abl-failures) is
        not called a violation; the registered check carries the verdict."""
        monkeypatch.setattr(type(tiny_sweep), "deaths",
                            lambda self, alg: np.array([0, 2]))
        md = figure_markdown(get_figure("abl-failures"), tiny_sweep, [])
        assert "*Perpetuity:* 4 deaths recorded." in md
        assert "violation" not in md
        assert "*Registered shape check:* **PASS**." in md

    def test_paper_panels_constant(self):
        assert PAPER_PANELS == ("fig1a", "fig1b", "fig2a", "fig2b",
                                "fig3", "fig4", "fig5", "fig6")
        for fid in PAPER_PANELS:
            get_figure(fid)  # all registered


class TestExperimentsMarkdown:
    def test_document_structure(self, monkeypatch, tiny_sweep):
        from repro.experiments import figures as figs

        spec = figs.FIGURES["fig1a"]
        monkeypatch.setattr(
            type(spec), "run",
            lambda self, *, n_topologies=None, full=False, progress=None,
            obs=None, jobs=1: tiny_sweep)
        md = experiments_markdown(["fig1a"], n_topologies=2)
        assert md.startswith("# EXPERIMENTS")
        assert "### fig1a" in md
        assert "run time" in md

    def test_summary_and_section_share_one_verdict(self, monkeypatch, tiny_sweep):
        from repro.experiments import figures as figs

        calls = []

        def check(result):
            calls.append(result)
            return ["mean mtd/greedy in (0.45, 0.7) (got 0.9)"]

        failing = dataclasses.replace(figs.FIGURES["fig1a"], check=check)
        monkeypatch.setitem(figs.FIGURES, "fig1a", failing)
        monkeypatch.setattr(
            figs.FigureSpec, "run",
            lambda self, *, n_topologies=None, full=False, progress=None,
            obs=None, jobs=1: tiny_sweep)
        md = experiments_markdown(["fig1a"])
        assert len(calls) == 1  # one evaluation feeds both renderings
        assert re.search(r"^\| \[fig1a\].* \| FAIL: mean mtd/greedy in "
                         r"\(0\.45, 0\.7\) \(got 0\.9\) \|$", md, flags=re.M)
        assert ("*Registered shape check:* **FAIL: mean mtd/greedy in "
                "(0.45, 0.7) (got 0.9)**." in md)

    def test_cli_report_writes_file(self, monkeypatch, tmp_path, tiny_sweep, capsys):
        from repro.cli import main
        from repro.experiments import figures as figs

        spec = figs.FIGURES["fig1a"]
        monkeypatch.setattr(
            type(spec), "run",
            lambda self, *, n_topologies=None, full=False, progress=None,
            obs=None, jobs=1: tiny_sweep)
        out = tmp_path / "EXP.md"
        assert main(["report", "--figures", "fig1a", "--out", str(out),
                     "--quiet"]) == 0
        assert out.exists()
        assert "### fig1a" in out.read_text()

    def test_summary_states_deaths_neutrally(self, monkeypatch, tiny_sweep):
        from repro.experiments import figures as figs

        monkeypatch.setattr(
            figs.FigureSpec, "run",
            lambda self, *, n_topologies=None, full=False, progress=None,
            obs=None, jobs=1: tiny_sweep)
        monkeypatch.setattr(type(tiny_sweep), "deaths",
                            lambda self, alg: np.array([1, 0]))
        md = experiments_markdown(["fig1a"])
        assert re.search(r"^\| \[fig1a\].* \| no \(2 deaths\) \|", md, flags=re.M)
        assert "NO (" not in md

    def test_cli_report_validates_figures_before_running(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["report", "--figures", "not-a-figure",
                     "--out", str(tmp_path / "x.md")]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err and "not-a-figure" in err
        assert not (tmp_path / "x.md").exists()  # nothing ran


def _github_slug(heading: str) -> str:
    """GitHub's heading anchor: lower-case, drop punctuation except ``-``
    and ``_``, one hyphen per space."""
    kept = "".join(ch for ch in heading.lower()
                   if ch.isalnum() or ch in "-_ ")
    return kept.replace(" ", "-")


def _assert_summary_links_resolve(md: str) -> list[str]:
    headings = {_github_slug(line.lstrip("#").strip())
                for line in md.splitlines() if line.startswith("#")}
    targets = re.findall(r"^\| \[[^\]]+\]\(#([^)]+)\)", md, flags=re.M)
    assert targets, "the summary table has no links"
    for target in targets:
        assert target in headings, f"dead summary link #{target}"
    return targets


class TestSummaryLinks:
    def test_every_link_targets_a_heading(self, monkeypatch, tiny_sweep):
        from repro.experiments import figures as figs

        monkeypatch.setattr(
            figs.FigureSpec, "run",
            lambda self, *, n_topologies=None, full=False, progress=None,
            obs=None, jobs=1: tiny_sweep)
        ids = ["fig1a", "fig5", "abl-q", "abl-base"]
        for fid in ids:  # their claims are about other sweeps than tiny_sweep
            monkeypatch.setitem(figs.FIGURES, fid, dataclasses.replace(
                figs.FIGURES[fid], check=lambda result: []))
        targets = _assert_summary_links_resolve(experiments_markdown(ids))
        assert len(targets) == len(ids)
        assert targets[0] == ("fig1a--service-cost-vs-network-size-n-linear-"
                              "distribution-fixed-cycles")

    def test_committed_experiments_md_links_resolve(self):
        md = (Path(__file__).resolve().parents[2] / "EXPERIMENTS.md").read_text()
        targets = _assert_summary_links_resolve(md)
        assert ("abl-refine--ablation-2-opt-refinement-of-algorithm-2-tours"
                in targets)


class TestRunPrintsThePanelSection:
    def test_run_table_matches_the_report_section(self, monkeypatch, capsys):
        """``repro run`` prints the EXPERIMENTS.md panel: the same table rows
        as ``repro report`` for the same sweep, ratios to three decimals."""
        from repro.cli import main
        from repro.experiments import figures as figs

        spec = figs.FIGURES["fig1a"]
        small = figs.FigureSpec(
            figure_id=spec.figure_id, title=spec.title,
            parameter=spec.parameter, values=(20, 25), values_full=(20, 25),
            base=spec.base.with_(horizon=60.0), paper_claim=spec.paper_claim,
            check=spec.check)
        monkeypatch.setitem(figs.FIGURES, "fig1a", small)
        assert main(["run", "fig1a", "--reps", "2", "--quiet"]) == 0
        printed = capsys.readouterr().out
        section = experiments_markdown(["fig1a"], n_topologies=2)
        section = section[section.index("### fig1a"):]

        def table(text: str) -> list[str]:
            return [line for line in text.splitlines() if line.startswith("|")]

        assert table(printed) == table(section)
        assert printed.strip().startswith("### fig1a — ")
        rows = table(printed)[2:]
        assert len(rows) == 2
        for row in rows:
            ratio = row.strip("|").split("|")[-1].strip()
            assert re.fullmatch(r"\d\.\d{3}", ratio), row
