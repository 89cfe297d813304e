"""Smoke test of the end-to-end benchmark.

Not part of tier-1; run it explicitly (about 15 s)::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

It runs ``run.py --smoke --trace 1`` (tiny inputs, every workload) and
checks the emitted metrics against ``BENCHMARK.json``, the output checks,
and that no server or fleet process outlives the run.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import uuid
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _marked(mark: str) -> list[int]:
    """Live processes whose environment carries ``mark``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            environ = Path(f"/proc/{entry}/environ").read_bytes()
            state = Path(f"/proc/{entry}/stat").read_text().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if mark.encode() in environ and state != "Z":
            pids.append(int(entry))
    return pids


def _kill_groups(pids: list[int]) -> None:
    for pid in pids:
        try:
            os.killpg(os.getpgid(pid), signal.SIGKILL)
        except ProcessLookupError:
            pass


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One smoke run; every process it started is killed by group at the end."""
    mark = f"E2E_SMOKE_{uuid.uuid4().hex}"
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    env = dict(os.environ, E2E_SMOKE_MARK=mark)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "0",
             "--trace", "1", "--out", str(out)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
        survivors = _marked(mark)
        yield proc, out, survivors
    finally:
        _kill_groups(_marked(mark))


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_run_succeeds_and_leaves_no_process(smoke):
    proc, _, survivors = smoke
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert survivors == []


def test_every_declared_metric_is_emitted_and_nothing_else(smoke):
    proc, out, _ = smoke
    spec = _spec()
    result = json.loads(out.read_text())
    assert sorted(result["workloads"]) == sorted(w["name"] for w in spec["workloads"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, res in result["workloads"].items():
        assert sorted(res["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
        assert sorted(res["layers"]) == sorted(m["name"] for m in spec["per_layer"])
        assert res["absent"] == {}, res["absent"]
    lines = [line.split() for line in proc.stdout.splitlines()[:-1]]
    printed = {(w, m): u for w, m, _, u in lines if m != "error_rate"}
    assert len(printed) == len(units) * len(spec["workloads"])
    assert all(units[m] == u for (_, m), u in printed.items())
    assert all(NAME.match(m) for m in units)


def test_last_line_follows_the_result_contract(smoke):
    proc, _, _ = smoke
    last = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
    assert all(set(v) == {"value", "unit"} for v in last["metrics"].values())


def test_outputs_verified_without_errors(smoke):
    _, out, _ = smoke
    result = json.loads(out.read_text())
    assert result["correct"] is True
    for name, res in result["workloads"].items():
        assert res["mismatches"] == [], name
        assert res["verified"] > 0, name
        assert res["error_rate"] == 0, (name, res["errors"])


def test_compare_reads_the_result_files(smoke):
    _, out, _ = smoke
    proc = subprocess.run([sys.executable, str(HERE / "compare.py"),
                           "--base", str(out), "--new", str(out)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert len(rows) == len(_spec()["workloads"])
    assert "REGRESSION" not in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "benchmarks/e2e/run.py", "--workload",
                           "plan-cold", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
