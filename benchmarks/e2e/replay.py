"""The traced run's in-process replay and the library size sweep.

For each sample request the replay calls each layer's public function in
the order the serve path calls it, with ``time.perf_counter`` around
every call. *Top-level* layers are disjoint, and their per-request sum is
``traced.layers_ms``, set against the request's wall time through the
real server. *Nested* layers break ``core.mintotal.min_total_distance``
down into the stages a cache miss runs; they are not added again.

Every function is looked up by name when the replay starts. A function
that has gone or no longer accepts the call makes its layer absent (it
reads 0 and is named in ``absent``), never a failed run, so refactors
inside the program do not break the benchmark.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import pickle
import statistics
import time
from typing import Any, Callable

import numpy as np

from workloads import HORIZON, Q, Request

#: The layers the replay times, reported as ``<layer>_share``.
REPLAY_LAYERS = (
    "serve.protocol.encode_request", "serve.protocol.decode_request",
    "serve.protocol.encode_response", "serve.protocol.decode_response",
    "serve.server.plan_key", "serve.worker.ipc_params", "serve.worker.ipc_result",
    "io.network_json.network_from_dict", "network.model.dist",
    "network.model.fingerprint", "core.quantize.quantize_cycles",
    "rooted.msf.q_rooted_msf", "tsp.construct.tours_from_forest",
    "rooted.refine.refine_tours", "core.mintotal.min_total_distance",
    "core.schedule.total_cost", "core.schedule.validate_for",
    "io.plan_json.plan_to_dict", "io.plan_json.plan_from_dict", "sim.engine.simulate",
    "fleet.router.routing_key", "fleet.router.frame",
)
#: Sizes the replay records, reported as their median over the sample.
REPLAY_VALUES = {"serve.request_bytes": "B", "serve.response_bytes": "B",
                 "serve.worker.ipc_params_bytes": "B", "io.plan_bytes": "B",
                 "core.K": "count"}

#: Functions the replay calls, by the module that owns them.
_FUNCS = {
    "encode": "repro.serve.protocol:encode",
    "decode_request": "repro.serve.protocol:decode_request",
    "decode_response": "repro.serve.protocol:decode_response",
    "ok_response": "repro.serve.protocol:ok_response",
    "plan_key": "repro.serve.server:plan_key",
    "routing_key": "repro.fleet.router:routing_key",
    "network_from_dict": "repro.io.network_json:network_from_dict",
    "plan_to_dict": "repro.io.plan_json:plan_to_dict",
    "plan_from_dict": "repro.io.plan_json:plan_from_dict",
    "quantize_cycles": "repro.core.quantize:quantize_cycles",
    "min_total_distance": "repro.core.mintotal:min_total_distance",
    "q_rooted_msf": "repro.rooted.msf:q_rooted_msf",
    "tours_from_forest": "repro.tsp.construct:tours_from_forest",
    "refine_tours": "repro.rooted.refine:refine_tours",
    "simulate": "repro.sim.engine:simulate",
    "PlannedPolicy": "repro.sim.policies:PlannedPolicy",
    "FixedWorkload": "repro.sim.workload:FixedWorkload",
    "ScenarioDynamics": "repro.sim.sources:ScenarioDynamics",
    "Instrumentation": "repro.obs.instrument:Instrumentation",
    "PlanArtifactCache": "repro.plan.cache:PlanArtifactCache",
    "build_paper_network": "repro.network.builder:build_paper_network",
}


def _resolve(path: str) -> Any:
    module, _, attr = path.partition(":")
    try:
        return getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError):
        return None


class _Absent(Exception):
    """A layer function is missing or no longer accepts the call."""


class Recorder:
    """Per-request layer times (ms) and sizes across the replayed requests."""

    def __init__(self) -> None:
        self.f = {name: _resolve(path) for name, path in _FUNCS.items()}
        self.times: list[dict[str, float]] = []
        self.values: list[dict[str, float]] = []
        self.sums: list[float] = []
        self.absent: dict[str, str] = {}

    def begin(self) -> None:
        self.times.append({})
        self.values.append({})
        self.sums.append(0.0)

    def _call(self, name: str, fn: Callable | None, args, kwargs) -> Any:
        if fn is None:
            self.absent.setdefault(name, "function not found")
            raise _Absent(name)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - a changed layer, not a failed run
            self.absent.setdefault(name, f"{type(exc).__name__}: {exc}")
            raise _Absent(name) from exc
        ms = (time.perf_counter() - t0) * 1e3
        self.times[-1][name] = self.times[-1].get(name, 0.0) + ms
        return out, ms

    def top(self, name: str, fn: Callable | None, *args: Any, **kwargs: Any) -> Any:
        """Time a top-level layer call; it counts towards the layer sum."""
        out, ms = self._call(name, fn, args, kwargs)
        self.sums[-1] += ms
        return out

    def nested(self, name: str, fn: Callable | None, *args: Any, **kwargs: Any) -> Any:
        """Time a stage already inside a top-level layer; not summed again."""
        return self._call(name, fn, args, kwargs)[0]

    def value(self, name: str, v: float) -> None:
        self.values[-1][name] = float(v)

    def shares(self, walls: list[float]) -> dict[str, float]:
        """Median over requests of each layer's time over the request's wall."""
        names = {name for t in self.times for name in t}
        return {name: statistics.median(t.get(name, 0.0) / wall
                                        for t, wall in zip(self.times, walls))
                for name in names}

    def medians(self) -> dict[str, float]:
        names = {name for v in self.values for name in v}
        return {name: statistics.median(v[name] for v in self.values if name in v)
                for name in names}


def _pickle_roundtrip(obj: Any) -> int:
    """What the process pool does to a call or result: pickle, unpickle."""
    blob = pickle.dumps(obj)
    pickle.loads(blob)
    return len(blob)


def _router_frame(f: dict, line: bytes, *, response: bool) -> bytes:
    """The fleet router's second NDJSON framing of one request or response."""
    message = json.loads(line)
    if response:
        return f["encode"](message)
    f["decode_request"](line)
    return f["encode"](dict(message, id=1))


class Replay:
    """Replays sample requests of one workload, layer by layer."""

    def __init__(self, *, fleet: bool, process_executor: bool,
                 warm: list[Request]) -> None:
        self.rec = Recorder()
        self.fleet = fleet
        self.ipc = process_executor
        f = self.rec.f
        self.cache = f["PlanArtifactCache"]() if f["PlanArtifactCache"] else None
        # Mirror the worker's artifact cache: plan the warm geometries once.
        try:
            for _, params in warm:
                f["min_total_distance"](f["network_from_dict"](params["network"]),
                                        float(params["horizon"]), cache=self.cache)
        except Exception as exc:  # noqa: BLE001 - a changed layer, not a failed run
            self.rec.absent.setdefault("replay.warm", f"{type(exc).__name__}: {exc}")

    def run(self, req: Request) -> None:
        self.rec.begin()
        try:
            self._request(req)
        except _Absent:
            pass
        except Exception as exc:  # noqa: BLE001 - a changed layer, not a failed run
            self.rec.absent.setdefault("replay", f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------ serve path
    def _request(self, req: Request) -> None:
        rec, f = self.rec, self.rec.f
        rtype, params = req
        line = rec.top("serve.protocol.encode_request", f["encode"],
                       {"type": rtype, "id": 1, **params})
        rec.value("serve.request_bytes", len(line))
        if self.fleet:
            line = rec.top("fleet.router.frame", _router_frame, f, line, response=False)
            rec.top("fleet.router.routing_key", f["routing_key"], params)
        request = rec.top("serve.protocol.decode_request", f["decode_request"], line)
        if rtype == "plan":
            rec.top("serve.server.plan_key", f["plan_key"], request.params)
        if self.ipc:
            rec.value("serve.worker.ipc_params_bytes",
                      rec.top("serve.worker.ipc_params", _pickle_roundtrip,
                              request.params))
        out, obs = (self._plan if rtype == "plan" else self._simulate)(request.params)
        if self.ipc:
            snap = obs.snapshot()
            if dataclasses.is_dataclass(snap) and hasattr(snap, "events"):
                snap = dataclasses.replace(snap, events=())
            rec.top("serve.worker.ipc_result", _pickle_roundtrip, (out, snap))
        resp = rec.top("serve.protocol.encode_response", f["encode"],
                       f["ok_response"](1, out))
        rec.value("serve.response_bytes", len(resp))
        if self.fleet:
            resp = rec.top("fleet.router.frame", _router_frame, f, resp, response=True)
        rec.top("serve.protocol.decode_response", f["decode_response"], resp)

    def _network(self, params: dict[str, Any]) -> Any:
        rec, f = self.rec, self.rec.f
        net = rec.top("io.network_json.network_from_dict", f["network_from_dict"],
                      params["network"])
        rec.top("network.model.dist", lambda: net.dist)
        return net

    def _plan(self, params: dict[str, Any]) -> tuple[dict[str, Any], Any]:
        rec, f = self.rec, self.rec.f
        net = self._network(params)
        fingerprint = rec.top("network.model.fingerprint",
                              lambda: net.geometry_fingerprint)
        horizon, refine = float(params["horizon"]), bool(params.get("refine"))
        self._stages(net, fingerprint, refine)
        obs = f["Instrumentation"]()
        result = rec.top("core.mintotal.min_total_distance", f["min_total_distance"],
                         net, horizon, refine=refine, base=2, cache=self.cache, obs=obs)
        doc = rec.top("io.plan_json.plan_to_dict", f["plan_to_dict"], result.plan)
        rec.value("io.plan_bytes", len(f["encode"](doc)))
        cost = rec.top("core.schedule.total_cost", result.plan.total_cost, net.dist)
        return {"plan": doc, "K": int(result.quantization.K),
                "n_schedulings": len(result.plan), "service_cost": float(cost),
                "fingerprint": fingerprint}, obs

    def _stages(self, net: Any, fingerprint: str, refine: bool) -> None:
        """Algorithm 3's stages for the coverage sets the cache lacks."""
        rec, f = self.rec, self.rec.f
        quant = rec.nested("core.quantize.quantize_cycles", f["quantize_cycles"],
                           net.cycles, base=2)
        rec.value("core.K", quant.K)
        depots = [int(i) for i in net.depot_indices]
        for cov in dict.fromkeys(quant.coverage_sets()):
            if self.cache is not None and self.cache.get_tours(fingerprint, cov, refine):
                continue
            forest = rec.nested("rooted.msf.q_rooted_msf", f["q_rooted_msf"],
                                net.dist, sorted(cov), depots)
            tours = rec.nested("tsp.construct.tours_from_forest",
                               f["tours_from_forest"], forest)
            if refine:
                rec.nested("rooted.refine.refine_tours", f["refine_tours"],
                           net.dist, tours)

    def _simulate(self, params: dict[str, Any]) -> tuple[dict[str, Any], Any]:
        rec, f = self.rec, self.rec.f
        net = self._network(params)
        plan = rec.top("io.plan_json.plan_from_dict", f["plan_from_dict"], params["plan"])
        rec.top("core.schedule.validate_for", plan.validate_for, net)
        obs = f["Instrumentation"]()

        def run() -> Any:
            dyn = f["ScenarioDynamics"].from_dict(params["dynamics"])
            return f["simulate"](net, f["PlannedPolicy"](plan),
                                 f["FixedWorkload"].from_network(net), plan.horizon,
                                 instrumentation=obs, sources=dyn.build_sources())

        m = rec.top("sim.engine.simulate", run).metrics
        return {"service_cost": float(m.service_cost),
                "energy_delivered": float(m.energy_delivered),
                "n_dispatches": int(m.n_dispatches), "n_charges": int(m.n_charges),
                "n_deaths": int(m.n_deaths), "perpetual": bool(m.perpetual),
                "summary": m.summary(), "n_failures": int(m.n_failures),
                "n_churn_events": int(m.n_churn_events),
                "n_requests": int(m.n_requests)}, obs


# ------------------------------------------------------------------ sweep

#: Library sweep sizes; ``--smoke`` runs each at a tenth of its size.
SWEEP_SIZES = (200, 1000, 2000, 5000)
SWEEP_LAYERS = ("network.model.dist", "rooted.msf.q_rooted_msf",
                "tsp.construct.tours_from_forest", "core.mintotal.min_total_distance")


def sweep(seed: int, *, smoke: bool) -> tuple[dict[str, float], dict[str, str]]:
    """Time the dominant planner layers at growing n, one network each;
    returns ``{"sweep.n<N>.<layer>_ms": ms}`` and the absent layers."""
    rec = Recorder()
    rng = np.random.default_rng([seed, 5])
    out: dict[str, float] = {}
    for size in SWEEP_SIZES:
        rec.begin()
        try:
            _sweep_one(rec, size // 10 if smoke else size, int(rng.integers(2 ** 32)))
        except _Absent:
            pass
        except Exception as exc:  # noqa: BLE001 - a changed layer, not a failed run
            rec.absent.setdefault("sweep", f"{type(exc).__name__}: {exc}")
        out.update({f"sweep.n{size}.{k}_ms": v for k, v in rec.times[-1].items()})
    return out, {f"sweep.{k}": v for k, v in rec.absent.items()}


def _sweep_one(rec: Recorder, n: int, seed: int) -> None:
    f = rec.f
    if f["build_paper_network"] is None or f["quantize_cycles"] is None:
        raise _Absent("build_paper_network")
    net = f["build_paper_network"](n=n, q=Q, seed=seed)
    rec.nested("network.model.dist", lambda: net.dist)
    quant = f["quantize_cycles"](net.cycles, base=2)
    depots = [int(i) for i in net.depot_indices]
    for cov in dict.fromkeys(quant.coverage_sets()):
        forest = rec.nested("rooted.msf.q_rooted_msf", f["q_rooted_msf"],
                            net.dist, sorted(cov), depots)
        rec.nested("tsp.construct.tours_from_forest", f["tours_from_forest"], forest)
    rec.nested("core.mintotal.min_total_distance", f["min_total_distance"],
               net, HORIZON)
