"""Plan requests, cold or warm, and simulate requests never build the
distance matrix.

Measuring a tour reads its edges from the node coordinates
(:func:`repro.geometry.distance.closed_tour_length`); the q-rooted MSF is
solved from the coordinates too (a Delaunay candidate graph, or a matrix
over the coverage set's own nodes), and refine builds each tour's own
matrix. Here the builder of :attr:`SensorNetwork.dist` is patched to raise,
so a request path that still builds the O(n²) matrix fails loudly, and the
answers must equal a reference computed before the patch exactly.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.network.model as model
from repro.core.mintotal import min_total_distance
from repro.io.network_json import network_from_dict, network_to_dict
from repro.io.plan_json import plan_to_dict
from repro.network.builder import build_paper_network
from repro.plan.cache import PlanArtifactCache
from repro.serve.worker import execute_plan, execute_simulate

STORM = {"failure_rate": 0.04, "failure_mttr": 8.0, "churn_rate": 0.05,
         "churn_downtime": 10.0, "request_rate": 0.3, "seed": 5}


def _no_matrix(coords):
    raise AssertionError(f"distance matrix built for {len(coords)} nodes")


@pytest.fixture(scope="module")
def warm():
    """An n=300 geometry whose tours are all in the worker cache."""
    doc = network_to_dict(build_paper_network(n=300, q=4, seed=11))
    cache = PlanArtifactCache()
    cold, _ = execute_plan(network_from_dict(doc), {"horizon": 200.0}, cache=cache)
    return doc, cache, cold


def test_patch_blocks_the_matrix(warm, monkeypatch):
    doc, _, _ = warm
    monkeypatch.setattr(model, "distance_matrix", _no_matrix)
    with pytest.raises(AssertionError, match="distance matrix built"):
        network_from_dict(doc).dist


def test_warm_plan_at_unseen_horizon_builds_no_matrix(warm, monkeypatch):
    doc, cache, _ = warm
    net = network_from_dict(doc)
    ref = min_total_distance(net, 333.0)
    ref_cost = ref.plan.total_cost(net.dist)
    monkeypatch.setattr(model, "distance_matrix", _no_matrix)
    out, _ = execute_plan(network_from_dict(doc), {"horizon": 333.0}, cache=cache)
    assert out["plan"] == plan_to_dict(ref.plan)
    assert out["service_cost"] == ref_cost


def test_storm_simulate_builds_no_matrix(warm, monkeypatch):
    doc, _, cold = warm
    payload = {"plan": cold["plan"], "dynamics": STORM}
    ref, _ = execute_simulate(network_from_dict(doc), payload)
    monkeypatch.setattr(model, "distance_matrix", _no_matrix)
    out, _ = execute_simulate(network_from_dict(doc), payload)
    assert out == ref
    assert out["n_failures"] > 0 and out["n_dispatches"] > 0


@pytest.mark.parametrize("refine", [False, True], ids=["plain", "refine"])
def test_cold_plan_builds_no_matrix(refine, monkeypatch):
    # n=600 puts the full coverage level above the Delaunay floor; the
    # smaller levels take the local-matrix path.
    doc = network_to_dict(build_paper_network(n=600, q=5, seed=21))
    ref = plan_to_dict(min_total_distance(network_from_dict(doc), 300.0,
                                          refine=refine).plan)
    monkeypatch.setattr(model, "distance_matrix", _no_matrix)
    out, _ = execute_plan(network_from_dict(doc), {"horizon": 300.0, "refine": refine},
                          cache=PlanArtifactCache())
    assert out["plan"] == ref
    uncached = min_total_distance(network_from_dict(doc), 300.0, refine=refine)
    assert plan_to_dict(uncached.plan) == ref


def test_small_cold_plan_never_imports_scipy():
    """scipy loads only for sets above the Delaunay floor, so a small plan
    (the serve readiness probe, the fleet's n=200 plans) never pays its
    import time or memory."""
    code = (
        "import sys\n"
        "from repro.io.network_json import network_from_dict, network_to_dict\n"
        "from repro.network.builder import build_paper_network\n"
        "from repro.serve.worker import execute_plan\n"
        "doc = network_to_dict(build_paper_network(n=50, q=5, seed=1))\n"
        "execute_plan(network_from_dict(doc), {'horizon': 300.0, 'refine': True})\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_baseline_panel_builds_no_matrix(tmp_path, monkeypatch):
    """The abl-baselines panel (mtd, greedy, naive and the periodic
    baseline) plans and simulates from coordinates alone."""
    from repro.cli import main

    def run(name):
        path = tmp_path / f"{name}.csv"
        assert main(["run", "abl-baselines", "--reps", "1", "--quiet",
                     "--csv", str(path)]) == 0
        return path.read_bytes()

    ref = run("ref")
    monkeypatch.setattr(model, "distance_matrix", _no_matrix)
    assert run("patched") == ref
