"""Integration: every example script runs end-to-end, and the CLI works.

Examples are executed in-process (imported as modules and ``main()``
invoked) so failures produce real tracebacks and coverage counts them.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.cli import main

EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples").glob("*.py"))


def _run_example(path: Path) -> None:
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    try:
        spec.loader.exec_module(mod)
        mod.main()
    finally:
        sys.modules.pop(spec.name, None)


class TestExamples:
    def test_examples_exist(self):
        names = {p.stem for p in EXAMPLES}
        assert "quickstart" in names
        assert len(EXAMPLES) >= 3  # the deliverable floor

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_example_runs(self, path, capsys):
        _run_example(path)
        out = capsys.readouterr().out
        assert out.strip(), f"{path.stem} produced no output"


class TestCli:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "MinTotalDistance" in out and "Greedy" in out

    def test_run_tiny_figure_with_csv(self, tmp_path, capsys, monkeypatch):
        """Shrink fig1a's grid via the registry so `repro run` stays fast."""
        from repro.experiments import figures as figs

        spec = figs.FIGURES["fig1a"]
        small = dataclasses.replace(spec, values=(20,), values_full=(20,),
                                    base=spec.base.with_(horizon=60.0))
        monkeypatch.setitem(figs.FIGURES, "fig1a", small)
        csv_path = tmp_path / "fig1a.csv"
        assert main(["run", "fig1a", "--reps", "1", "--quiet",
                     "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "fig1a" in out
        assert csv_path.exists()
