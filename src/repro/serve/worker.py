"""Executor-side request execution for the planning service.

The server offloads CPU-bound commands (``plan``, ``simulate``) to a pool of
workers; this module is the code that actually runs there. Everything is a
module-level function so the :class:`~concurrent.futures.ProcessPoolExecutor`
can ship it by reference, and the same functions run unchanged on a
:class:`~concurrent.futures.ThreadPoolExecutor` (the server's ``thread``
mode, used by tests and the fleet differential).

Each worker keeps a **warm** :class:`~repro.plan.cache.PlanArtifactCache`
resident in :data:`_CACHE`:

* ``process`` mode — one cache *per worker process*, created by the pool's
  ``initializer`` (:func:`init_worker`) and reused across every request that
  lands on that process. Repeat geometries skip Algorithms 1–2 entirely.
* ``thread`` mode — one cache shared by *all* worker threads (the server
  passes its own instance), which is exactly why
  :class:`~repro.plan.cache.PlanArtifactCache` is internally locked.

Workers collect their own :class:`~repro.obs.Instrumentation` per request
and return a picklable snapshot next to the result; the server merges the
snapshot (events stripped — a long-lived server must not accumulate an
unbounded trace) into its live stats, so ``plan.cache.*`` hit rates and
stage timers show up in the ``stats`` response.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Any

from repro.io.files import unwrap_envelope
from repro.io.plan_json import plan_from_dict, plan_to_dict
from repro.network.model import SensorNetwork
from repro.obs.instrument import Instrumentation, StatsSnapshot
from repro.plan.cache import PlanArtifactCache
from repro.plan.store import PlanArtifactStore

__all__ = ["init_worker", "execute_plan", "execute_simulate",
           "flush_worker_cache"]

_CACHE: PlanArtifactCache | None = None
_STORE: PlanArtifactStore | None = None
_CACHE_GUARD = threading.Lock()


def init_worker(max_entries: int | None = 4096,
                cache_dir: str | None = None) -> None:
    """Create the worker process's resident plan-artifact cache.

    Passed as the :class:`~concurrent.futures.ProcessPoolExecutor`
    ``initializer``: the first call in each process creates a private cache
    of ``max_entries`` entries; later calls keep it. Thread-mode servers do
    not use this — they pass their shared (locked) cache per call instead,
    so two servers embedded in one process never clobber each other's
    state through this module global.

    With ``cache_dir`` the process also opens the shared on-disk
    :class:`~repro.plan.store.PlanArtifactStore` there and **warm-starts**
    the cache from it, so a freshly booted pool serves repeat geometries
    without recomputing anything a previous run already solved; every
    request then reads through / writes through the store.
    """
    global _CACHE, _STORE
    with _CACHE_GUARD:
        if _CACHE is None:
            _CACHE = PlanArtifactCache(max_entries)
        if cache_dir is not None and _STORE is None:
            _STORE = PlanArtifactStore(cache_dir)
            _STORE.warm(_CACHE)


def flush_worker_cache() -> int:
    """Persist the resident cache to the resident store (drain path).

    Ran in each worker at server shutdown; returns the number of entries
    written (0 when the worker has no store, or nothing new to save —
    write-through keeps the store current during normal operation, so this
    is a safety net for entries warm-loaded into memory only).
    """
    if _CACHE is None or _STORE is None:
        return 0
    return _STORE.flush(_CACHE)


def _strip_events(snap: StatsSnapshot) -> StatsSnapshot:
    """Everything but the trace — the server must not grow per-request
    events, but gauges and quantile sketches must survive the hop so the
    merged server stats (and the ``watch`` stream) see worker-side state
    like ``sim.queue.depth`` and ``plan`` latency sketches."""
    return StatsSnapshot(counters=snap.counters, timers=snap.timers,
                         series=snap.series, events=(),
                         gauges=snap.gauges, sketches=snap.sketches)


def _synthetic_delay(payload: dict[str, Any]) -> None:
    """Optional service-time padding (``"delay": seconds``).

    A load-testing knob: saturation/deadline/coalescing behaviour is timing
    dependent, and padding the service time makes it deterministic for the
    integration tests, the load generator and the benchmarks. Capped so a
    hostile request cannot park a worker for long.
    """
    delay = float(payload.get("delay", 0.0) or 0.0)
    if delay > 0:
        time.sleep(min(delay, 10.0))


def _inject_fault(payload: dict[str, Any]) -> None:
    """Fault-injection knob (``"fault": "exception" | "kill"``).

    Used by the :mod:`repro.check` fault-injection suite to exercise the
    server's failure paths with real worker failures rather than mocks:

    * ``"exception"`` — raise from inside the worker; the server must map
      it to an ``internal`` error response, never a dropped connection.
    * ``"kill"`` — hard-exit the worker process mid-request, which makes
      the :class:`~concurrent.futures.ProcessPoolExecutor` raise
      ``BrokenProcessPool``; the server must answer ``internal`` and
      rebuild the pool. Only honoured in a *child* process — in thread
      mode ``os._exit`` would take down the whole server (and the test
      suite embedding it), so it degrades to the exception fault.
    """
    fault = payload.get("fault")
    if not fault:
        return
    if fault == "kill" and multiprocessing.parent_process() is not None:
        os._exit(86)
    raise RuntimeError(f"injected worker fault: {fault}")


def execute_plan(net: SensorNetwork, payload: dict[str, Any],
                 cache: PlanArtifactCache | None = None,
                 store: PlanArtifactStore | None = None,
                 ) -> tuple[dict[str, Any], StatsSnapshot]:
    """Run one ``plan`` command: network → plan document.

    ``net`` is the request's network, decoded once by the server parent
    (a process pool ships it as its columns); ``payload`` carries
    ``horizon`` and optional ``refine``/``base``/``delay``. Planning goes
    through Algorithm 3 (:func:`~repro.core.mintotal.min_total_distance`,
    i.e. the staged :func:`~repro.plan.pipeline.build_levels` pipeline)
    against the worker's resident cache (``cache`` overrides the
    process-global one — the thread-mode server passes its shared instance
    here). Library errors (e.g. a bad horizon) propagate as
    :class:`~repro.errors.ReproError` and become ``bad_request`` responses
    server-side.
    """
    from repro.core.mintotal import min_total_distance

    obs = Instrumentation()
    _synthetic_delay(payload)
    _inject_fault(payload)
    horizon = float(payload["horizon"])
    result = min_total_distance(
        net, horizon,
        refine=bool(payload.get("refine", False)),
        base=int(payload.get("base", 2)),
        cache=cache if cache is not None else _CACHE,
        store=store if store is not None else _STORE,
        obs=obs)
    out = {
        "plan": plan_to_dict(result.plan),
        "K": int(result.quantization.K),
        "n_schedulings": len(result.plan),
        "service_cost": float(result.plan.total_cost(coords=net.coordinates)),
        "fingerprint": net.geometry_fingerprint,
    }
    return out, _strip_events(obs.snapshot())


def execute_simulate(net: SensorNetwork, payload: dict[str, Any],
                     cache: PlanArtifactCache | None = None,
                     store: PlanArtifactStore | None = None,
                     ) -> tuple[dict[str, Any], StatsSnapshot]:
    """Run one ``simulate`` command: (network, plan document) → metrics.

    ``net`` is the request's decoded network, as for :func:`execute_plan`;
    ``payload`` carries the ``plan`` document. ``cache``/``store`` are
    accepted for submission-path uniformity and unused — simulation
    replays a finished plan, so it has no plan artifacts to reuse. Replays
    the plan with the planned policy under the network's nominal fixed
    workload over the plan's own horizon;
    :meth:`~repro.core.schedule.SchedulePlan.validate_for` rejects a
    plan/network mismatch before any simulation work happens.

    An optional ``dynamics`` object (the
    :meth:`~repro.sim.sources.ScenarioDynamics.to_dict` encoding) turns on
    charger breakdowns, sensor churn and Poisson charging requests for the
    replay; the response then additionally reports ``n_failures``,
    ``n_churn_events`` and ``n_requests``. Because ``dynamics`` travels
    inside the command payload, the wire protocol itself is unchanged —
    old clients and servers interoperate, they just simulate statically.
    """
    from repro.sim.engine import simulate
    from repro.sim.policies import PlannedPolicy
    from repro.sim.sources import ScenarioDynamics
    from repro.sim.workload import FixedWorkload

    obs = Instrumentation()
    _synthetic_delay(payload)
    _inject_fault(payload)
    plan = plan_from_dict(unwrap_envelope(payload["plan"], "schedule-plan"))
    plan.validate_for(net)
    dynamics = None
    if payload.get("dynamics") is not None:
        dynamics = ScenarioDynamics.from_dict(payload["dynamics"])
    run = simulate(net, PlannedPolicy(plan), FixedWorkload.from_network(net),
                   plan.horizon, instrumentation=obs,
                   sources=dynamics.build_sources() if dynamics else ())
    m = run.metrics
    out = {
        "service_cost": float(m.service_cost),
        "energy_delivered": float(m.energy_delivered),
        "n_dispatches": int(m.n_dispatches),
        "n_charges": int(m.n_charges),
        "n_deaths": int(m.n_deaths),
        "perpetual": bool(m.perpetual),
        "summary": m.summary(),
    }
    if dynamics is not None:
        out["n_failures"] = int(m.n_failures)
        out["n_churn_events"] = int(m.n_churn_events)
        out["n_requests"] = int(m.n_requests)
    return out, _strip_events(obs.snapshot())
