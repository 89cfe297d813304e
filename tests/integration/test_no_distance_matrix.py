"""Warm plan requests and simulate requests never build the distance matrix.

Measuring a tour reads its edges from the node coordinates
(:func:`repro.geometry.distance.closed_tour_length`); only the all-pairs
solvers need :attr:`SensorNetwork.dist`. Here the matrix builder is patched
to raise, so a request path that still builds the O(n²) matrix fails loudly,
and the answers must equal the matrix-costed reference exactly.
"""

import pytest

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
    cold, _ = execute_plan({"network": doc, "horizon": 200.0}, cache=cache)
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
    monkeypatch.setattr(model, "distance_matrix", _no_matrix)
    out, _ = execute_plan({"network": doc, "horizon": 333.0}, cache=cache)
    assert out["plan"] == plan_to_dict(ref.plan)
    assert out["service_cost"] == ref.plan.total_cost(net.dist)


def test_storm_simulate_builds_no_matrix(warm, monkeypatch):
    doc, _, cold = warm
    payload = {"network": doc, "plan": cold["plan"], "dynamics": STORM}
    ref, _ = execute_simulate(payload)
    monkeypatch.setattr(model, "distance_matrix", _no_matrix)
    out, _ = execute_simulate(payload)
    assert out == ref
    assert out["n_failures"] > 0 and out["n_dispatches"] > 0
