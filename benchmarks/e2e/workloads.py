"""The four workloads: seeded inputs, warm-up, traced sample, output checks.

Everything here runs in the benchmark process and outside any timed
phase. Inputs come only from ``--seed`` (through
:func:`repro.network.builder.build_paper_network`), and the program under
test receives only the generated documents. No request carries a
``delay``, ``fault`` or ``kernel_backend`` field.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.mintotal import min_total_distance
from repro.io.network_json import network_from_dict, network_to_dict
from repro.io.plan_json import plan_from_dict, plan_to_dict
from repro.network.builder import build_paper_network
from repro.sim.engine import simulate
from repro.sim.policies import PlannedPolicy
from repro.sim.sources import ScenarioDynamics
from repro.sim.workload import FixedWorkload

Request = tuple[str, dict[str, Any]]

Q = 5
HORIZON = 300.0
SAMPLE = 16
#: The failure-storm scenario's dynamics, minus the per-request seed.
STORM = {"failure_rate": 0.04, "failure_mttr": 8.0, "churn_rate": 0.05,
         "churn_downtime": 10.0, "request_rate": 0.3}


@dataclass
class Inputs:
    """Everything one workload sends, generated before any timing starts.

    ``stream`` is consumed in order by the closed loop until the timed
    phase ends; it is capped at a length the current program cannot
    exhaust within the run. ``repeats`` maps a stream index to the
    earlier index it repeats. ``sample`` holds fresh requests of the
    stream's kind for the traced run, and ``warm`` the requests whose
    planner artifacts the server already holds when the sample runs.
    """

    warmup: list[Request]
    stream: list[Request]
    sample: list[Request]
    repeats: dict[int, int] = field(default_factory=dict)
    warm: list[Request] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    system: str          # "serve" (process executor, 2 workers) or "fleet"
    why: str
    n: int
    smoke_n: int
    max_rate: float      # stream cap, requests per second of timed phase
    build: Callable[["Workload", tuple[int, int], int, bool], Inputs]


def _rng(base: tuple[int, int], stream: int) -> np.random.Generator:
    return np.random.default_rng([*base, stream])


def _doc(n: int, rng: np.random.Generator) -> dict[str, Any]:
    return network_to_dict(build_paper_network(
        n=n, q=Q, seed=int(rng.integers(2 ** 32))))


def _plan(network: dict[str, Any], horizon: float = HORIZON,
          refine: bool = False) -> Request:
    return ("plan", {"network": network, "horizon": horizon, "refine": refine})


def _fresh_plans(n: int, count: int, rng: np.random.Generator,
                 refine: bool = False) -> list[Request]:
    return [_plan(_doc(n, rng), refine=refine) for _ in range(count)]


def _build_plan_cold(w: Workload, base, cap: int, smoke: bool) -> Inputs:
    n = w.smoke_n if smoke else w.n
    return Inputs(warmup=_fresh_plans(n, 4, _rng(base, 0)),
                  stream=_fresh_plans(n, cap, _rng(base, 1)),
                  sample=_fresh_plans(n, SAMPLE, _rng(base, 2)))


def _build_replan_warm(w: Workload, base, cap: int, smoke: bool) -> Inputs:
    n = w.smoke_n if smoke else w.n
    n_geom = 2 if smoke else 8
    rng = _rng(base, 0)
    geoms = [_doc(n, rng) for _ in range(n_geom)]
    # Six warm-up horizons per geometry, so both pool workers almost surely
    # hold every geometry. Horizon ranges never overlap: warm-up 100..150,
    # sample 160.., stream 200.. (a permutation, so no stream horizon repeats).
    warmup = [_plan(g, 100.0 + 10.0 * h) for h in range(6) for g in geoms]
    order = _rng(base, 1).permutation(cap)
    stream = [_plan(geoms[i % n_geom], 200.0 + 0.5 * float(order[i]))
              for i in range(cap)]
    sample = [_plan(geoms[k % n_geom], 160.0 + 0.5 * k) for k in range(SAMPLE)]
    return Inputs(warmup=warmup, stream=stream, sample=sample,
                  warm=[_plan(g, 100.0) for g in geoms])


def _build_fleet_refine(w: Workload, base, cap: int, smoke: bool) -> Inputs:
    n = w.smoke_n if smoke else w.n
    rng = _rng(base, 1)
    stream: list[Request] = []
    repeats: dict[int, int] = {}
    for i in range(cap):
        # A repeat names a request 3..64 places back: far enough that with
        # two closed-loop clients its original was sent first, near enough
        # that it is still in the shard's response LRU.
        if i >= 3 and rng.random() < 0.25:
            j = int(rng.integers(max(0, i - 64), i - 2))
            repeats[i] = j
            stream.append(stream[j])
        else:
            stream.append(_plan(_doc(n, rng), refine=True))
    return Inputs(warmup=_fresh_plans(n, 4, _rng(base, 0), refine=True),
                  stream=stream, repeats=repeats,
                  sample=_fresh_plans(n, SAMPLE, _rng(base, 2), refine=True))


def _build_simulate(w: Workload, base, cap: int, smoke: bool) -> Inputs:
    n = w.smoke_n if smoke else w.n
    rng = _rng(base, 0)
    pairs = []
    for _ in range(2 if smoke else 8):
        doc = _doc(n, rng)
        plan = min_total_distance(network_from_dict(doc), HORIZON).plan
        pairs.append((doc, plan_to_dict(plan)))
    seeds = _rng(base, 1).permutation(cap + SAMPLE + 4)

    def sim(k: int) -> Request:
        doc, plan = pairs[k % len(pairs)]
        return ("simulate", {"network": doc, "plan": plan,
                             "dynamics": dict(STORM, seed=int(seeds[k]))})

    return Inputs(warmup=[sim(cap + SAMPLE + k) for k in range(4)],
                  stream=[sim(k) for k in range(cap)],
                  sample=[sim(cap + k) for k in range(SAMPLE)])


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("plan-cold", "serve",
             "fresh n=2000 geometry per plan request, so every cache misses "
             "and planner compute (dist matrix, q-rooted MSF, tour walk) dominates",
             2000, 120, 16.0, _build_plan_cold),
    Workload("replan-warm", "serve",
             "8 warm n=2000 geometries at never-seen horizons: response LRU "
             "misses, worker artifact caches hit, so the per-request plumbing dominates",
             2000, 120, 30.0, _build_replan_warm),
    Workload("fleet-refine", "fleet",
             "small n=200 refine plans through the 2-shard fleet with 25% exact "
             "repeats: router hop, framing, response LRU and 2-opt",
             200, 40, 120.0, _build_fleet_refine),
    Workload("simulate-dynamics", "serve",
             "replays of library-planned n=500 plans under failure-storm dynamics: "
             "plan decoding and the simulator run, the planner never does",
             500, 60, 60.0, _build_simulate),
)}


def build_inputs(w: Workload, seed: int, seconds: float, smoke: bool) -> Inputs:
    base = (seed, zlib.crc32(w.name.encode()))
    return w.build(w, base, max(8, math.ceil(seconds * w.max_rate)), smoke)


# ---------------------------------------------------------------- checking

def canonical_sha(doc: Any) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":"))
                          .encode()).hexdigest()


def check_all(checks: list[tuple[int, Request, dict[str, Any]]]) -> list[str]:
    """Recompute each ``(index, request, server result)`` in-process and
    name every field that differs.

    A reference is computed once per request object, so a repeat costs one
    computation with its original. Checks run grouped by network document,
    so requests over one geometry share one rebuilt network.
    """
    refs: dict[int, dict[str, Any]] = {}
    net_of: tuple[int, Any] = (0, None)
    problems = []
    for i, (rtype, params), result in sorted(
            checks, key=lambda c: (id(c[1][1]["network"]), c[0])):
        ref = refs.get(id(params))
        if ref is None:
            doc = params["network"]
            if net_of[0] != id(doc):
                net_of = (id(doc), network_from_dict(doc))
            ref = refs[id(params)] = (_plan_reference if rtype == "plan"
                                      else _sim_reference)(net_of[1], params)
        got = dict(result)
        if rtype == "plan":
            got["plan"] = canonical_sha(result.get("plan"))
        problems += [f"request {i}: {key}: server {got.get(key)!r} != "
                     f"in-process {want!r}"
                     for key, want in ref.items() if got.get(key) != want]
    return problems


def _plan_reference(net: Any, params: dict[str, Any]) -> dict[str, Any]:
    res = min_total_distance(net, float(params["horizon"]),
                             refine=bool(params["refine"]))
    return {"plan": canonical_sha(plan_to_dict(res.plan)),
            "service_cost": float(res.plan.total_cost(net.dist)),
            "K": int(res.quantization.K),
            "fingerprint": net.geometry_fingerprint}


def _sim_reference(net: Any, params: dict[str, Any]) -> dict[str, Any]:
    plan = plan_from_dict(params["plan"])
    dyn = ScenarioDynamics.from_dict(params["dynamics"])
    m = simulate(net, PlannedPolicy(plan), FixedWorkload.from_network(net),
                 plan.horizon, sources=dyn.build_sources()).metrics
    return {"service_cost": float(m.service_cost), "n_deaths": int(m.n_deaths),
            "n_dispatches": int(m.n_dispatches),
            "energy_delivered": float(m.energy_delivered)}
