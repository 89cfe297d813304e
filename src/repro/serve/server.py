"""The asyncio planning service.

A long-lived dispatcher for the online charging problem: it keeps warm
:class:`~repro.plan.cache.PlanArtifactCache` state resident and answers
many ``plan``/``simulate`` requests against it, instead of paying the
one-shot CLI's cold start per query. The shape mirrors an inference
server:

* **Transport** — newline-delimited JSON over TCP
  (:mod:`repro.serve.protocol`); one request line in, one response line
  out, per-connection order preserved, concurrency across connections.
* **Offload** — CPU-bound commands run on a bounded executor
  (``process`` mode: a :class:`~concurrent.futures.ProcessPoolExecutor`
  with a per-process warm artifact cache; ``thread`` mode: a
  :class:`~concurrent.futures.ThreadPoolExecutor` sharing one locked
  cache — used by tests, the smoke harness and NumPy-heavy workloads that
  release the GIL). The event loop itself never plans.
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
* **Graceful drain** — SIGTERM/SIGINT stop the listener, let in-flight
  requests finish (up to ``drain_timeout``), answer anything new with
  ``shutting_down``, then tear the executor down.

Everything is stdlib; observability goes through :mod:`repro.obs`
(``serve.*`` counters, the ``serve.request`` span, the
``serve.queue_depth`` gauge) and is exposed live on the ``stats`` request.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import signal
import threading
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
from repro.obs.instrument import Instrumentation, trim_trace
from repro.obs.live import DeltaEmitter, quantile_table
from repro.obs.log import get_logger
from repro.plan.cache import PlanArtifactCache
from repro.plan.store import PlanArtifactStore
from repro.serve.protocol import (
    BAD_REQUEST,
    DEADLINE_EXCEEDED,
    INTERNAL,
    OVERLOADED,
    PROTOCOL_VERSION,
    SHUTTING_DOWN,
    Request,
    WatchUpgrade,
    decode_request,
    encode,
    error_response,
    ok_response,
)
from repro.serve.worker import (execute_plan, execute_simulate,
                                flush_worker_cache, init_worker)

__all__ = ["ServeConfig", "PlanningServer", "ServerThread", "serve", "plan_key"]

log = get_logger(__name__)

_EXECUTORS = ("process", "thread")

#: Per-connection bound on remembered request ids (duplicate detection).
#: Requests on one connection are answered in order, so a well-behaved
#: client reusing ids after this many requests is indistinguishable from a
#: fresh id — the window only needs to catch accidental immediate reuse.
_SEEN_IDS_LIMIT = 1024


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
        startup — what tests and the smoke harness use).
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
        :class:`~repro.plan.cache.PlanArtifactCache`.
    cache_dir:
        Optional directory of a shared on-disk
        :class:`~repro.plan.store.PlanArtifactStore` (tier 2). Workers
        warm-start their in-memory caches from it at pool boot, read
        through it on memory misses, write computed artifacts through it,
        and flush to it on drain — so a restarted server plans warm.
        ``None`` (default) keeps the service purely in-memory.
    plan_responses:
        Capacity of the parent-side LRU of completed ``plan`` response
        documents (exact-repeat hits without touching a worker). ``0``
        disables it.
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
    drain_timeout: float = 10.0
    max_line_bytes: int = 8 * 1024 * 1024
    cache_entries: int | None = 4096
    cache_dir: str | None = None
    plan_responses: int = 256
    max_trace_events: int = 10_000

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


def plan_key(params: dict[str, Any]) -> tuple:
    """The single-flight / response-cache key of one ``plan`` request.

    ``(geometry fingerprint, cycles digest, horizon, refine, base)`` — the
    exact inputs Algorithm 3's output depends on. Two requests coalesce iff
    planning them would do identical work: the fingerprint pins the metric
    geometry and the cycles digest pins the quantisation (hence every
    coverage set) built on top of it. The load-testing ``delay`` knob is
    deliberately excluded, and so is the ignored legacy kernel-selection
    field (see :mod:`repro.serve.protocol`).

    Raises
    ------
    ServeError
        (``bad_request``) when the envelope around the network is invalid;
        ``ReproError`` propagates from a malformed network document.
    """
    net = network_from_dict(unwrap_envelope(params.get("network"), "sensor-network"))
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


class PlanningServer:
    """The asyncio TCP planning service (see the module docstring).

    Construct, then ``await start()`` inside a running event loop; the
    bound address is :attr:`address`. Drive the lifetime with
    :meth:`wait_stopped` / :meth:`shutdown` (or
    :meth:`install_signal_handlers` for SIGTERM/SIGINT). ``obs`` is the
    live instrumentation served by ``stats``; pass your own to share it
    with the embedding process.
    """

    def __init__(self, config: ServeConfig | None = None,
                 obs: Instrumentation | None = None) -> None:
        self.config = config if config is not None else ServeConfig()
        self.obs = obs if obs is not None else Instrumentation()
        self._server: asyncio.base_events.Server | None = None
        self._executor: ProcessPoolExecutor | ThreadPoolExecutor | None = None
        self._shared_cache: PlanArtifactCache | None = None
        self._shared_store: PlanArtifactStore | None = None
        self._flights: dict[tuple, _Flight] = {}
        self._responses: OrderedDict[tuple, dict[str, Any]] = OrderedDict()
        self._jobs: set[asyncio.Task] = set()
        self._conns: set[asyncio.Task] = set()
        self._pending = 0
        self._busy = 0
        self._draining = False
        self._stopping = False
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopped = asyncio.Event()
        self._t0 = time.monotonic()

    # -------------------------------------------------------------- lifecycle
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` to the real one)."""
        if self._server is None or not self._server.sockets:
            raise ServeError("server is not started", code=INTERNAL)
        host, port = self._server.sockets[0].getsockname()[:2]
        return str(host), int(port)

    async def start(self) -> None:
        """Create the executor and start listening."""
        if self._server is not None:
            raise ServeError("server already started", code=INTERNAL)
        cfg = self.config
        if cfg.executor == "process":
            self._executor = ProcessPoolExecutor(
                max_workers=cfg.workers, initializer=init_worker,
                initargs=(cfg.cache_entries, cfg.cache_dir))
        else:
            self._shared_cache = PlanArtifactCache(cfg.cache_entries)
            if cfg.cache_dir is not None:
                self._shared_store = PlanArtifactStore(cfg.cache_dir)
                loaded = self._shared_store.warm(self._shared_cache, obs=self.obs)
                log.info("repro serve: warm-started %d artifact(s) from %s",
                         loaded, cfg.cache_dir)
            self._executor = ThreadPoolExecutor(
                max_workers=cfg.workers, thread_name_prefix="repro-serve")
        self._t0 = time.monotonic()
        self._server = await asyncio.start_server(
            self._handle_conn, cfg.host, cfg.port, limit=cfg.max_line_bytes)

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

    async def wait_stopped(self) -> None:
        """Block until :meth:`shutdown` completes."""
        await self._stopped.wait()

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop accepting work, optionally drain in-flight requests, stop.

        Idempotent. With ``drain`` (the default) in-flight requests get up
        to ``drain_timeout`` seconds to complete and write their responses;
        requests arriving while draining are answered ``shutting_down``.
        """
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain and not self._idle.is_set():
            try:
                await asyncio.wait_for(self._idle.wait(), self.config.drain_timeout)
            except asyncio.TimeoutError:
                log.warning("repro serve: drain timed out with %d request(s) busy",
                            self._busy)
        for task in list(self._jobs) + list(self._conns):
            task.cancel()
        if self._jobs or self._conns:
            await asyncio.gather(*self._jobs, *self._conns, return_exceptions=True)
        self._flush_stores()
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        self._stopped.set()

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

    # ------------------------------------------------------------ connections
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conns.add(task)
        seen_ids: OrderedDict[str, None] = OrderedDict()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # request line exceeded max_line_bytes
                    writer.write(encode(error_response(
                        None, BAD_REQUEST,
                        f"request line exceeds {self.config.max_line_bytes} bytes")))
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                self._busy += 1
                self._idle.clear()
                try:
                    response = await self._handle_line(line, seen_ids)
                    if not isinstance(response, WatchUpgrade):
                        writer.write(encode(response))
                        await writer.drain()
                finally:
                    self._busy -= 1
                    if self._busy == 0:
                        self._idle.set()
                if isinstance(response, WatchUpgrade):
                    await self._watch(response.req, reader, writer)
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Shutdown cancels idle connection tasks; ending cleanly keeps
            # asyncio's stream machinery from logging the cancellation.
            pass
        finally:
            if task is not None:
                self._conns.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _handle_line(self, line: bytes,
                           seen_ids: "OrderedDict[str, None] | None" = None,
                           ) -> "dict[str, Any] | WatchUpgrade":
        o = self.obs
        o.incr("serve.requests")
        try:
            req = decode_request(line)
        except ServeError as exc:
            o.incr("serve.failed")
            o.incr(f"serve.failed.{exc.code}")
            return error_response(None, exc.code, str(exc))
        if seen_ids is not None and req.id is not None:
            # Ids are free-form JSON; canonicalise to a hashable key.
            id_key = json.dumps(req.id, sort_keys=True, default=str)
            if id_key in seen_ids:
                o.incr("serve.duplicate_id")
                o.incr("serve.failed")
                o.incr(f"serve.failed.{BAD_REQUEST}")
                return error_response(
                    req.id, BAD_REQUEST,
                    f"duplicate request id {req.id!r} on this connection")
            seen_ids[id_key] = None
            while len(seen_ids) > _SEEN_IDS_LIMIT:
                seen_ids.popitem(last=False)
        o.incr(f"serve.requests.{req.type}")
        if req.type == "watch":
            # Validated here; the connection handler runs the push loop
            # outside the busy/idle accounting (see WatchUpgrade).
            try:
                float(req.params.get("interval", 1.0))
            except (TypeError, ValueError):
                o.incr("serve.failed")
                o.incr(f"serve.failed.{BAD_REQUEST}")
                return error_response(
                    req.id, BAD_REQUEST,
                    f"watch interval must be a number of seconds, "
                    f"got {req.params.get('interval')!r}")
            return WatchUpgrade(req)
        with o.span("serve.request", _mark=True, type=req.type):
            if req.type == "health":
                response = ok_response(req.id, self._health())
            elif req.type == "stats":
                response = ok_response(req.id, self._stats())
            elif req.type == "plan":
                response = await self._plan(req)
            else:
                response = await self._simulate(req)
        if not response["ok"]:
            o.incr("serve.failed")
            o.incr(f"serve.failed.{response['error']['code']}")
        trim_trace(o, self.config.max_trace_events)
        return response

    # ------------------------------------------------------------ watch stream
    async def _watch(self, req: Request, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        """Server-push subscription: one metric-delta frame per interval.

        Strictly opt-in: the :class:`~repro.obs.live.DeltaEmitter` exists
        only for the lifetime of a subscription, so a server nobody watches
        does no extra per-request work. The loop ends when the client
        closes its end (EOF) or the server starts draining.
        """
        interval = max(0.05, float(req.params.get("interval", 1.0)))
        source = str(req.params.get("source") or "serve")
        emitter = DeltaEmitter(self.obs, source=source)
        self.obs.incr("serve.watch.subscribed")
        writer.write(encode(ok_response(req.id, {
            "stream": "watch", "role": "serve", "source": source,
            "interval": interval, "protocol": PROTOCOL_VERSION})))
        await writer.drain()
        eof = asyncio.ensure_future(reader.read())
        try:
            while True:
                done, _ = await asyncio.wait({eof}, timeout=interval)
                closed = bool(done) or writer.is_closing()
                if closed or self._stopping:
                    break
                writer.write(encode(emitter.frame().to_dict()))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            eof.cancel()
            self.obs.incr("serve.watch.closed")

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
        if self._draining:
            return error_response(req.id, SHUTTING_DOWN, "server is draining")
        try:
            key = plan_key(req.params)
        except ServeError as exc:
            return error_response(req.id, exc.code, str(exc))
        except ReproError as exc:
            return error_response(req.id, BAD_REQUEST, str(exc))

        cached = self._responses.get(key)
        if cached is not None:
            self._responses.move_to_end(key)
            self.obs.incr("serve.plan_cache.hit")
            return ok_response(req.id, dict(cached, cached=True))

        flight = self._flights.get(key)
        coalesced = flight is not None
        if flight is None:
            rejected = self._admit(req)
            if rejected is not None:
                return rejected
            task = asyncio.get_running_loop().create_task(self._run_plan(key, req.params))
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
        if self._draining:
            return error_response(req.id, SHUTTING_DOWN, "server is draining")
        rejected = self._admit(req)
        if rejected is not None:
            return rejected
        task = asyncio.get_running_loop().create_task(
            self._run_job(execute_simulate, req.params))
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

    def _submit(self, fn: Callable, params: dict[str, Any]) -> "asyncio.Future":
        loop = asyncio.get_running_loop()
        if self._shared_cache is not None:  # thread mode: pass the shared tiers
            return loop.run_in_executor(
                self._executor, partial(fn, params, cache=self._shared_cache,
                                        store=self._shared_store))
        return loop.run_in_executor(self._executor, fn, params)

    async def _run_job(self, fn: Callable, params: dict[str, Any]) -> dict[str, Any]:
        """One admitted executor job; always releases its admission slot.

        A worker failure hard enough to break the pool (e.g. a killed
        process — ``BrokenProcessPool``) would otherwise leave every later
        request failing against a dead executor; the pool is rebuilt once
        and the triggering request still fails (``internal``), which is the
        honest answer — its job may have half-run.
        """
        executor = self._executor
        try:
            result, snap = await self._submit(fn, params)
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
        if self._stopping or self._executor is not broken:
            return
        self.obs.incr("serve.executor_rebuilt")
        log.warning("repro serve: executor broke; rebuilding the %s pool",
                    self.config.executor)
        cfg = self.config
        if cfg.executor == "process":
            self._executor = ProcessPoolExecutor(
                max_workers=cfg.workers, initializer=init_worker,
                initargs=(cfg.cache_entries, cfg.cache_dir))
        else:  # pragma: no cover - thread pools break only via initializer
            self._executor = ThreadPoolExecutor(
                max_workers=cfg.workers, thread_name_prefix="repro-serve")
        broken.shutdown(wait=False, cancel_futures=True)

    async def _run_plan(self, key: tuple, params: dict[str, Any]) -> dict[str, Any]:
        """A plan job: a :meth:`_run_job` that is single-flight registered."""
        try:
            result = await self._run_job(execute_plan, params)
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
        if self.config.plan_responses <= 0:
            return
        self._responses[key] = result
        self._responses.move_to_end(key)
        while len(self._responses) > self.config.plan_responses:
            self._responses.popitem(last=False)


class ServerThread:
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
        self.address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> tuple[str, int]:
        """Start the server; returns the bound ``(host, port)``."""
        ready = threading.Event()
        boot_error: list[BaseException] = []

        def main() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop

            async def boot() -> None:
                try:
                    await self.server.start()
                    self.address = self.server.address
                except BaseException as exc:  # noqa: BLE001 - reported to starter
                    boot_error.append(exc)
                finally:
                    ready.set()

            loop.run_until_complete(boot())
            if not boot_error:
                loop.run_until_complete(self.server.wait_stopped())
            loop.close()

        self._thread = threading.Thread(target=main, name="repro-serve", daemon=True)
        self._thread.start()
        if not ready.wait(timeout=30):
            raise ServeError("server thread did not start within 30s")
        if boot_error:
            raise boot_error[0]
        assert self.address is not None
        return self.address

    def stop(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Drain and stop the server, then join its thread."""
        if self._loop is None or self._thread is None:
            return
        if self._thread.is_alive():
            fut = asyncio.run_coroutine_threadsafe(
                self.server.shutdown(drain=drain), self._loop)
            try:
                fut.result(timeout=timeout)
            except (asyncio.TimeoutError, TimeoutError):  # pragma: no cover
                pass
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


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
