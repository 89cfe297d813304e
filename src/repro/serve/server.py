"""The asyncio planning service.

A long-lived dispatcher for the online charging problem: it keeps warm
:class:`~repro.plan.cache.PlanArtifactCache` state resident and answers
many ``plan``/``simulate`` requests against it, instead of paying the
one-shot CLI's cold start per query. The shape mirrors an inference
server:

* **Transport** — newline-delimited JSON over TCP
  (:mod:`repro.serve.protocol`) through the shared
  :class:`~repro.serve.frontend.FrontEnd`: framing, id hygiene, the
  ``watch`` upgrade and the graceful drain (SIGTERM/SIGINT: in-flight
  requests finish within ``drain_timeout``, new work gets
  ``shutting_down``, then the executor is torn down).
* **Offload** — CPU-bound commands run on a bounded executor
  (``process`` mode: a :class:`~concurrent.futures.ProcessPoolExecutor`
  with a per-process warm artifact cache; ``thread`` mode: a
  :class:`~concurrent.futures.ThreadPoolExecutor` sharing one locked
  cache — used by tests, the fleet differential and NumPy-heavy
  workloads that release the GIL). The event loop itself never plans.
* **Single-flight coalescing** — concurrent ``plan`` requests with the
  same plan key (``geometry_fingerprint`` × cycles digest × horizon ×
  refine × base — i.e. geometry × the coverage structure) share ONE
  executor job; late joiners await the same future
  (``serve.coalesced``). Completed plans land in a parent-side LRU of
  response documents (``serve.plan_cache.hit``), on top of whatever the
  workers' artifact caches reuse stage-by-stage.
* **Backpressure** — admission is bounded by ``queue_limit`` in-flight
  jobs; beyond it the server answers a structured ``overloaded`` error
  immediately (``serve.rejected``) instead of queueing without bound.
* **Deadlines** — every request gets ``deadline`` seconds (its own or the
  server default); on expiry the waiter receives ``deadline_exceeded``
  and a job nobody is waiting for any more is cancelled (best effort — a
  job already running on a process worker finishes and is discarded).

Everything is stdlib; observability goes through :mod:`repro.obs`
(``serve.*`` counters, the ``serve.request`` span, the
``serve.queue_depth`` gauge) and is exposed live on the ``stats`` request.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import pickle
import signal
import time
from pathlib import Path
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from repro.errors import ConfigError, ReproError, ServeError
from repro.io.files import unwrap_envelope
from repro.io.network_json import network_from_dict
from repro.network.model import SensorNetwork
from repro.obs.instrument import Instrumentation
from repro.obs.live import DeltaEmitter, quantile_table
from repro.obs.log import get_logger
from repro.plan.cache import PlanArtifactCache
from repro.plan.store import PlanArtifactStore
from repro.serve.frontend import (DRAIN_TIMEOUT, MAX_TRACE_EVENTS, FrontEnd,
                                  FrontEndThread)
from repro.serve.protocol import (
    BAD_REQUEST,
    DEADLINE_EXCEEDED,
    INTERNAL,
    OVERLOADED,
    PROTOCOL_VERSION,
    SHUTTING_DOWN,
    Request,
    error_response,
    ok_response,
)
from repro.serve.worker import (execute_plan, execute_simulate,
                                flush_worker_cache, init_worker)

__all__ = ["ServeConfig", "PlanningServer", "ServerThread", "serve", "plan_key",
           "request_network"]

log = get_logger(__name__)

_EXECUTORS = ("process", "thread")


@dataclass
class ServeConfig:
    """Tunables of one :class:`PlanningServer`.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back from
        :attr:`PlanningServer.address`).
    workers:
        Executor width — planner processes (``executor="process"``) or
        threads (``"thread"``). Must be ``>= 1``.
    executor:
        ``"process"`` (default; true CPU parallelism, per-process artifact
        caches) or ``"thread"`` (one shared, locked artifact cache; cheap
        startup — what tests and the fleet differential use).
    queue_limit:
        Maximum in-flight executor jobs (running + queued). Admission past
        this answers ``overloaded`` immediately.
    default_deadline:
        Per-request deadline in seconds when the request names none;
        ``None``/``0`` disables the default.
    drain_timeout:
        Seconds :meth:`PlanningServer.shutdown` waits for in-flight
        requests before cancelling them.
    max_line_bytes:
        Stream limit for one request line (networks are inlined in ``plan``
        requests, so this bounds the accepted network size).
    cache_entries:
        Capacity handed to each worker's
        :class:`~repro.plan.cache.PlanArtifactCache`, per artifact kind
        (forests; tour sets). One cold n=2000 plan fills K+1 (about 6) of
        each and retains ~190 KB of packed keys, forest edge arrays and
        shared tours, so the default 4096 bounds a worker near 130 MB at
        that size.
    cache_dir:
        Optional directory of a shared on-disk
        :class:`~repro.plan.store.PlanArtifactStore` (tier 2). Workers
        warm-start their in-memory caches from it at pool boot, read
        through it on memory misses, write computed artifacts through it,
        and flush to it on drain — so a restarted server plans warm.
        ``None`` (default) keeps the service purely in-memory.
    plan_responses:
        Capacity of the parent-side LRU of completed ``plan`` response
        documents (exact-repeat hits without touching a worker). Entries
        are kept pickled (~17 KB at n=2000) and unpickled into a private
        copy per hit. ``0`` disables it.
    max_trace_events:
        The server trims its own trace to this many events so a long-lived
        process does not grow memory with request count.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 1
    executor: str = "process"
    queue_limit: int = 32
    default_deadline: float | None = 30.0
    drain_timeout: float = DRAIN_TIMEOUT
    max_line_bytes: int = 8 * 1024 * 1024
    cache_entries: int | None = 4096
    cache_dir: str | None = None
    plan_responses: int = 256
    max_trace_events: int = MAX_TRACE_EVENTS

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"serve: workers must be >= 1, got {self.workers}")
        if self.executor not in _EXECUTORS:
            raise ConfigError(
                f"serve: executor must be one of {_EXECUTORS}, got {self.executor!r}")
        if self.queue_limit < 1:
            raise ConfigError(f"serve: queue_limit must be >= 1, got {self.queue_limit}")
        if self.plan_responses < 0:
            raise ConfigError(
                f"serve: plan_responses must be >= 0, got {self.plan_responses}")


def request_network(params: dict[str, Any]) -> SensorNetwork:
    """Decode the network a ``plan``/``simulate`` request carries.

    The document is a :func:`~repro.io.network_json.network_to_dict`
    output, bare or inside the ``save_network`` file envelope. The server
    decodes it once, in the parent, and hands the decoded network to the
    executor job; workers never see the document.

    Raises
    ------
    ReproError
        On a wrong envelope or a malformed network document.
    """
    return network_from_dict(unwrap_envelope(params.get("network"), "sensor-network"))


def plan_key(params: dict[str, Any], network: SensorNetwork | None = None) -> tuple:
    """The single-flight / response-cache key of one ``plan`` request.

    ``(geometry fingerprint, cycles digest, horizon, refine, base)`` — the
    exact inputs Algorithm 3's output depends on. Two requests coalesce iff
    planning them would do identical work: the fingerprint pins the metric
    geometry and the cycles digest pins the quantisation (hence every
    coverage set) built on top of it. The load-testing ``delay`` knob is
    deliberately excluded, and so is the ignored legacy kernel-selection
    field (see :mod:`repro.serve.protocol`). ``network`` is the request's
    already decoded network; without it the document is decoded here.

    Raises
    ------
    ServeError
        (``bad_request``) when ``horizon``, ``refine`` or ``base`` is
        invalid; ``ReproError`` propagates from :func:`request_network`.
    """
    net = network if network is not None else request_network(params)
    try:
        horizon = float(params["horizon"])
        refine = bool(params.get("refine", False))
        base = int(params.get("base", 2))
    except (KeyError, TypeError, ValueError) as exc:
        raise ServeError(
            f"plan request needs a numeric 'horizon' (and optional 'refine'/'base'): {exc}",
            code=BAD_REQUEST) from exc
    cycles = hashlib.sha256(
        np.ascontiguousarray(net.cycles, dtype=np.float64).tobytes()).hexdigest()
    return (net.geometry_fingerprint, cycles, horizon, refine, base)


class _Flight:
    """One in-flight ``plan`` computation and its waiter count."""

    __slots__ = ("task", "waiters")

    def __init__(self, task: asyncio.Task) -> None:
        self.task = task
        self.waiters = 0


class PlanningServer(FrontEnd):
    """The asyncio TCP planning service (see the module docstring).

    Construct, then ``await start()`` inside a running event loop; the
    bound address is :attr:`address`. Drive the lifetime with
    :meth:`wait_stopped` / :meth:`shutdown` (or
    :meth:`install_signal_handlers` for SIGTERM/SIGINT). ``obs`` is the
    live instrumentation served by ``stats``; pass your own to share it
    with the embedding process. Framing, id hygiene, drain and the
    ``watch`` upgrade come from :class:`~repro.serve.frontend.FrontEnd`.
    """

    prefix = "serve"

    def __init__(self, config: ServeConfig | None = None,
                 obs: Instrumentation | None = None) -> None:
        super().__init__(config if config is not None else ServeConfig(), obs)
        self.drain_timeout = self.config.drain_timeout
        self.max_trace_events = self.config.max_trace_events
        self._executor: ProcessPoolExecutor | ThreadPoolExecutor | None = None
        self._shared_cache: PlanArtifactCache | None = None
        self._shared_store: PlanArtifactStore | None = None
        self._flights: dict[tuple, _Flight] = {}
        self._responses: OrderedDict[tuple, bytes] = OrderedDict()
        self._jobs: set[asyncio.Task] = set()
        self._pending = 0

    # -------------------------------------------------------------- lifecycle
    async def _open(self) -> None:
        """Create the executor (and, in thread mode, the shared tiers)."""
        cfg = self.config
        if cfg.executor == "thread":
            self._shared_cache = PlanArtifactCache(cfg.cache_entries)
            if cfg.cache_dir is not None:
                self._shared_store = PlanArtifactStore(cfg.cache_dir)
                loaded = self._shared_store.warm(self._shared_cache, obs=self.obs)
                log.info("repro serve: warm-started %d artifact(s) from %s",
                         loaded, cfg.cache_dir)
        self._executor = self._new_executor()

    def _new_executor(self) -> ProcessPoolExecutor | ThreadPoolExecutor:
        cfg = self.config
        if cfg.executor == "process":
            return ProcessPoolExecutor(
                max_workers=cfg.workers, initializer=init_worker,
                initargs=(cfg.cache_entries, cfg.cache_dir))
        return ThreadPoolExecutor(max_workers=cfg.workers,
                                  thread_name_prefix="repro-serve")

    def install_signal_handlers(self) -> None:
        """Drain gracefully on SIGTERM/SIGINT (no-op where unsupported)."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, lambda s=sig: asyncio.ensure_future(self._on_signal(s)))
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass

    async def _on_signal(self, sig: int) -> None:  # pragma: no cover - signal path
        log.info("repro serve: received signal %s, draining ...", sig)
        await self.shutdown()

    async def _close(self) -> None:
        """Cancel leftover jobs, persist warm caches, stop the executor."""
        for task in list(self._jobs):
            task.cancel()
        if self._jobs:
            await asyncio.gather(*self._jobs, return_exceptions=True)
        self._flush_stores()
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)

    def _flush_stores(self) -> None:
        """Best-effort persist of warm caches on drain (``cache_dir`` only).

        Write-through keeps the store current during normal operation, so
        this only saves artifacts that existed purely in memory (and is
        skipped silently if the pool is already broken).
        """
        if self.config.cache_dir is None:
            return
        if self._shared_store is not None and self._shared_cache is not None:
            self._shared_store.flush(self._shared_cache, obs=self.obs)
            return
        if isinstance(self._executor, ProcessPoolExecutor):
            try:
                futures = [self._executor.submit(flush_worker_cache)
                           for _ in range(self.config.workers)]
                for fut in futures:
                    fut.result(timeout=self.config.drain_timeout)
            except Exception:  # pragma: no cover - broken pool at shutdown
                log.warning("repro serve: worker cache flush skipped (pool down)")

    # --------------------------------------------------------------- requests
    async def _dispatch(self, req: Request) -> dict[str, Any]:
        if req.type == "health":
            return ok_response(req.id, self._health())
        if req.type == "stats":
            return ok_response(req.id, self._stats())
        if req.type == "plan":
            return await self._plan(req)
        return await self._simulate(req)

    def _watch_session(self, req: Request, interval: float
                       ) -> tuple[dict[str, Any], DeltaEmitter]:
        source = str(req.params.get("source") or "serve")
        return ({"role": "serve", "source": source},
                DeltaEmitter(self.obs, source=source))
    # ---------------------------------------------------------------- queries
    def _health(self) -> dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "protocol": PROTOCOL_VERSION,
            "uptime": time.monotonic() - self._t0,
            "pending": self._pending,
            "workers": self.config.workers,
            "executor": self.config.executor,
        }

    def _stats(self) -> dict[str, Any]:
        def expand(stats: dict) -> dict[str, dict[str, float]]:
            return {name: {"count": s.count, "total": s.total, "mean": s.mean,
                           "min": s.vmin, "max": s.vmax}
                    for name, s in stats.items()}

        return {
            "uptime": time.monotonic() - self._t0,
            "pending": self._pending,
            "draining": self._draining,
            "plan_responses_cached": len(self._responses),
            "counters": dict(self.obs.counters),
            "timers": expand(self.obs.timers),
            "series": expand(self.obs.series),
            # Per-kind extras for the fleet aggregation (obs.live rules):
            # current gauge readings (last observed value), open span
            # counts, raw mergeable sketches, and readable quantiles.
            "gauges": dict(self.obs.gauges),
            "active_spans": dict(self.obs.active),
            "sketches": {k: v.to_dict() for k, v in self.obs.sketches.items()},
            "quantiles": quantile_table(
                self.obs.sketches,
                {k: (v.count, v.total) for k, v in self.obs.timers.items()}),
            # process workers own their caches; only thread mode can report
            "artifact_cache": (None if self._shared_cache is None
                               else self._shared_cache.info()),
            "artifact_store": (None if self._shared_store is None
                               else self._shared_store.stats()),
        }

    # --------------------------------------------------------------- commands
    async def _plan(self, req: Request) -> dict[str, Any]:
        try:
            net = request_network(req.params)
            key = plan_key(req.params, net)
        except ServeError as exc:
            return error_response(req.id, exc.code, str(exc))
        except ReproError as exc:
            return error_response(req.id, BAD_REQUEST, str(exc))

        cached = self._responses.get(key)
        if cached is not None:
            self._responses.move_to_end(key)
            self.obs.incr("serve.plan_cache.hit")
            hit = pickle.loads(cached)  # a private copy per hit
            hit["cached"] = True
            return ok_response(req.id, hit)

        flight = self._flights.get(key)
        coalesced = flight is not None
        if flight is None:
            rejected = self._admit(req)
            if rejected is not None:
                return rejected
            task = asyncio.get_running_loop().create_task(
                self._run_plan(key, net, req.params))
            self._jobs.add(task)
            task.add_done_callback(self._jobs.discard)
            flight = self._flights[key] = _Flight(task)
        else:
            self.obs.incr("serve.coalesced")
        flight.waiters += 1
        result = await self._await_job(req, flight.task, flight=flight)
        if isinstance(result, dict) and result.get("ok") is False:
            return result  # already an error response
        if coalesced:
            result = dict(result, coalesced=True)
        return ok_response(req.id, result)

    async def _simulate(self, req: Request) -> dict[str, Any]:
        try:
            net = request_network(req.params)
        except ReproError as exc:
            return error_response(req.id, BAD_REQUEST, str(exc))
        rejected = self._admit(req)
        if rejected is not None:
            return rejected
        task = asyncio.get_running_loop().create_task(
            self._run_job(execute_simulate, net, req.params))
        self._jobs.add(task)
        task.add_done_callback(self._jobs.discard)
        result = await self._await_job(req, task, flight=None)
        if isinstance(result, dict) and result.get("ok") is False:
            return result
        return ok_response(req.id, result)

    # -------------------------------------------------------------- execution
    def _admit(self, req: Request) -> dict[str, Any] | None:
        """Admission control: ``None`` admits, a response dict rejects."""
        if self._pending >= self.config.queue_limit:
            self.obs.incr("serve.rejected")
            return error_response(
                req.id, OVERLOADED,
                f"admission queue full ({self._pending} in flight, "
                f"limit {self.config.queue_limit}); retry later")
        self._pending += 1
        self.obs.observe("serve.queue_depth", self._pending)
        return None

    def _submit(self, fn: Callable, net: SensorNetwork,
                params: dict[str, Any]) -> "asyncio.Future":
        loop = asyncio.get_running_loop()
        # The job carries the decoded network, never the document again.
        job = {k: v for k, v in params.items() if k != "network"}
        if self._shared_cache is not None:  # thread mode: pass the shared tiers
            return loop.run_in_executor(
                self._executor, partial(fn, net, job, cache=self._shared_cache,
                                        store=self._shared_store))
        return loop.run_in_executor(self._executor, fn, net, job)

    async def _run_job(self, fn: Callable, net: SensorNetwork,
                       params: dict[str, Any]) -> dict[str, Any]:
        """One admitted executor job; always releases its admission slot.

        A worker failure hard enough to break the pool (e.g. a killed
        process — ``BrokenProcessPool``) would otherwise leave every later
        request failing against a dead executor; the pool is rebuilt once
        and the triggering request still fails (``internal``), which is the
        honest answer — its job may have half-run.
        """
        executor = self._executor
        try:
            result, snap = await self._submit(fn, net, params)
        except BrokenExecutor:
            self._rebuild_executor(executor)
            raise
        finally:
            self._pending -= 1
            self.obs.observe("serve.queue_depth", self._pending)
        self.obs.merge(snap)
        return result

    def _rebuild_executor(self, broken: object) -> None:
        """Replace a broken pool with a fresh one (idempotent per pool).

        ``broken`` is the executor the failing job was submitted to;
        concurrent jobs that died with the same pool all call this, and the
        identity guard makes sure only the first rebuilds.
        """
        if self._draining or self._executor is not broken:
            return
        self.obs.incr("serve.executor_rebuilt")
        log.warning("repro serve: executor broke; rebuilding the %s pool",
                    self.config.executor)
        self._executor = self._new_executor()
        broken.shutdown(wait=False, cancel_futures=True)

    async def _run_plan(self, key: tuple, net: SensorNetwork,
                        params: dict[str, Any]) -> dict[str, Any]:
        """A plan job: a :meth:`_run_job` that is single-flight registered."""
        try:
            result = await self._run_job(execute_plan, net, params)
        finally:
            self._flights.pop(key, None)
        self._remember(key, result)
        return result

    async def _await_job(self, req: Request, task: asyncio.Task,
                         *, flight: _Flight | None) -> dict[str, Any]:
        """Await a job under the request's deadline.

        Returns the job's result dict, or a complete *error response* dict
        (distinguished by ``ok: False``) on deadline/failure. Coalesced
        jobs are shielded so one waiter's deadline never cancels the shared
        computation; a flight whose last waiter timed out *is* cancelled
        (best effort — an already-running process job completes and is
        discarded, but a queued one never starts).
        """
        deadline = req.deadline if req.deadline is not None else self.config.default_deadline
        aw = asyncio.shield(task) if flight is not None else task
        try:
            if deadline:
                result = await asyncio.wait_for(aw, deadline)
            else:
                result = await aw
            return result
        except asyncio.TimeoutError:
            self.obs.incr("serve.deadline")
            if flight is not None:
                flight.waiters -= 1
                if flight.waiters <= 0 and not task.done():
                    task.cancel()
            return error_response(
                req.id, DEADLINE_EXCEEDED, f"deadline of {deadline:g}s exceeded")
        except asyncio.CancelledError:
            if task.cancelled():  # the job was cancelled, not this handler
                return error_response(req.id, SHUTTING_DOWN, "job was cancelled")
            raise
        except ReproError as exc:
            return error_response(req.id, BAD_REQUEST, str(exc))
        except Exception as exc:  # noqa: BLE001 - report, don't kill the conn
            return error_response(req.id, INTERNAL, f"{type(exc).__name__}: {exc}")

    def _remember(self, key: tuple, result: dict[str, Any]) -> None:
        """Keep ``result`` in the response LRU as pickled bytes: ~17 KB for
        an n=2000 plan, where the dict graph itself holds ~200 KB."""
        if self.config.plan_responses <= 0:
            return
        self._responses[key] = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        self._responses.move_to_end(key)
        while len(self._responses) > self.config.plan_responses:
            self._responses.popitem(last=False)


class ServerThread(FrontEndThread):
    """A :class:`PlanningServer` on a daemon thread with its own loop.

    The embedding shape used by the integration tests, the load-generator
    smoke mode and the serving benchmarks: blocking code starts a real
    server, talks to it over real sockets, then joins it::

        with ServerThread(ServeConfig(executor="thread", workers=4)) as srv:
            client = ServeClient(*srv.address)
            ...
    """

    def __init__(self, config: ServeConfig | None = None,
                 obs: Instrumentation | None = None) -> None:
        self.config = config if config is not None else ServeConfig(executor="thread",
                                                                    workers=2)
        self.server = PlanningServer(self.config, obs=obs)
        super().__init__(self.server, name="repro-serve")

def serve(config: ServeConfig | None = None,
          obs: Instrumentation | None = None,
          port_file: str | None = None) -> int:
    """Blocking entry point: run a server until SIGTERM/SIGINT (the CLI).

    ``port_file``, when given, receives ``host:port`` (atomically published)
    once the listening socket is bound — how a fleet supervisor learns the
    ephemeral port of a ``--port 0`` shard subprocess.

    Returns a process exit code.
    """
    server = PlanningServer(config, obs=obs)

    async def main() -> None:
        await server.start()
        server.install_signal_handlers()
        host, port = server.address
        if port_file is not None:
            tmp = Path(f"{port_file}.tmp")
            tmp.write_text(f"{host}:{port}\n")
            os.replace(tmp, port_file)
        cfg = server.config
        log.info("repro serve: listening on %s:%d (%s executor x %d, queue %d, "
                 "protocol v%d)", host, port, cfg.executor, cfg.workers,
                 cfg.queue_limit, PROTOCOL_VERSION)
        await server.wait_stopped()
        log.info("repro serve: stopped")

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    return 0
