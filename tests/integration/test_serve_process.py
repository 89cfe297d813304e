"""The planning service decodes each request's network once, in the parent.

A ``process``-executor :class:`~repro.serve.server.PlanningServer` ships
the decoded network to its worker as columns (a pickled
:class:`~repro.network.model.SensorNetwork`), so its answers must equal
the in-process library's exactly: the same plan bytes, ``K``, service cost
and fingerprint, and the same replay metrics. n=600 puts the full
coverage level above the Delaunay floor, so the worker runs the sparse
MSF path as well as the local-matrix one. A thread-mode server must decode
a ``plan`` request's network exactly once. A process server with a
``cache_dir`` flushes its workers' caches to disk on drain, and its
successor replans from them byte-identically.
"""

import hashlib
import json

import pytest

import repro.io.network_json as network_json
import repro.serve.server as server_module
from repro.core.mintotal import min_total_distance
from repro.io.network_json import network_from_dict, network_to_dict
from repro.io.plan_json import plan_to_dict
from repro.network.builder import build_paper_network
from repro.plan.store import PlanArtifactStore
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.sim.engine import simulate
from repro.sim.policies import PlannedPolicy
from repro.sim.workload import FixedWorkload

HORIZON = 300.0


def _sha256(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _wire(obj):
    """What a value looks like after the JSON hop."""
    return json.loads(json.dumps(obj))


@pytest.fixture(scope="module")
def doc():
    return network_to_dict(build_paper_network(n=600, q=5, seed=21))


@pytest.fixture(scope="module")
def answers(doc):
    """Two plans (refine off and on) and one replay from a process server."""
    config = ServeConfig(executor="process", workers=1, default_deadline=120.0,
                         drain_timeout=10.0)
    with ServerThread(config) as srv:
        with ServeClient(*srv.address, timeout=180) as client:
            plans = {refine: client.plan(doc, HORIZON, refine=refine)
                     for refine in (False, True)}
            replay = client.simulate(doc, plans[False]["plan"])
    return plans, replay


@pytest.mark.parametrize("refine", [False, True], ids=["plain", "refine"])
def test_process_server_plans_like_the_library(doc, answers, refine):
    net = network_from_dict(doc)
    ref = min_total_distance(net, HORIZON, refine=refine)
    out = answers[0][refine]
    assert _sha256(out["plan"]) == _sha256(plan_to_dict(ref.plan))
    assert out["K"] == ref.quantization.K
    assert out["n_schedulings"] == len(ref.plan)
    assert out["service_cost"] == ref.plan.total_cost(coords=net.coordinates)
    assert out["fingerprint"] == net.geometry_fingerprint


def test_process_server_simulates_like_the_library(doc, answers):
    net = network_from_dict(doc)
    plan = min_total_distance(net, HORIZON).plan
    m = simulate(net, PlannedPolicy(plan), FixedWorkload.from_network(net),
                 plan.horizon).metrics
    assert answers[1] == {
        "service_cost": m.service_cost,
        "energy_delivered": m.energy_delivered,
        "n_dispatches": m.n_dispatches,
        "n_charges": m.n_charges,
        "n_deaths": m.n_deaths,
        "perpetual": m.perpetual,
        "summary": _wire(m.summary()),
    }


def test_thread_server_decodes_each_plan_request_once(monkeypatch):
    calls = []
    decode = network_json.network_from_dict

    def counting(data):
        calls.append(1)
        return decode(data)

    monkeypatch.setattr(network_json, "network_from_dict", counting)
    monkeypatch.setattr(server_module, "network_from_dict", counting)
    doc = network_to_dict(build_paper_network(n=40, q=3, seed=4))
    config = ServeConfig(executor="thread", workers=2, default_deadline=60.0,
                         drain_timeout=10.0)
    with ServerThread(config) as srv:
        with ServeClient(*srv.address, timeout=60) as client:
            # a cold plan, a warm replan at a new horizon, an exact repeat
            for horizon in (120.0, 240.0, 240.0):
                client.plan(doc, horizon)
                assert len(calls) == 1
                calls.clear()


def test_process_server_drains_to_disk_and_replans_warm(tmp_path):
    """Plan, drain, restart, replan the same geometry at a new horizon.

    The store is wiped between the plan and the drain, so the only way its
    entries come back is the drain's ``flush_worker_cache`` job running in
    the worker process. The restarted pool warm-loads them: the replan
    solves nothing and its plan bytes equal the library's.
    """
    doc = network_to_dict(build_paper_network(n=120, q=3, seed=8))
    net = network_from_dict(doc)
    config = ServeConfig(executor="process", workers=1, default_deadline=120.0,
                         drain_timeout=30.0, cache_dir=str(tmp_path))
    store = PlanArtifactStore(tmp_path)
    with ServerThread(config) as srv:
        with ServeClient(*srv.address, timeout=180) as client:
            client.plan(doc, HORIZON)
        assert store.n_entries > 0  # written through while planning
        store.clear()                 # only the worker's memory holds them now
    flushed = store.n_entries
    assert flushed > 0

    with ServerThread(config) as srv:
        with ServeClient(*srv.address, timeout=180) as client:
            replan = client.plan(doc, 2 * HORIZON)
            counters = client.stats()["counters"]
    assert _sha256(replan["plan"]) == _sha256(
        plan_to_dict(min_total_distance(net, 2 * HORIZON).plan))
    assert counters["plan.cache.tours.hit"] >= 1
    assert "plan.cache.tours.miss" not in counters
    assert "plan.cache.forest.miss" not in counters
    assert store.n_entries == flushed
