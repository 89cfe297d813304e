"""Blocking client and concurrent load generator for the planning service.

:class:`ServeClient` is the minimal synchronous counterpart of the server:
one TCP connection, one request line out, one response line in, errors
surfaced as :class:`~repro.errors.ServeError` with the protocol's error
code attached.

:class:`LoadGenerator` drives many clients from worker threads to measure
the server under concurrency: per-request wall-clock latencies, nearest-rank
percentiles (p50/p95/p99), throughput, and the outcome mix (ok / rejected /
deadline / failed). The server-side coalescing and planner-execution
counters are read through a ``stats`` request before and after the run, so
a load report also says how much work the single-flight layer *avoided*.
The serving gate built on them is ``repro check fleet``; the measured load
driver is ``benchmarks/e2e/run.py``.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from random import Random
from typing import Any

from repro.errors import ServeError
from repro.obs.quantile import percentile
from repro.serve.protocol import DEADLINE_EXCEEDED, OVERLOADED, decode_response, encode
from repro.serve.protocol import raise_for_error as _raise_for_error

__all__ = ["ServeClient", "LoadGenerator", "LoadReport", "percentile"]


class ServeClient:
    """One blocking connection to a :class:`~repro.serve.server.PlanningServer`.

    Usable as a context manager. Not thread-safe — give each thread its own
    client (connections are cheap; the server multiplexes).

    ``retries`` > 0 makes :meth:`request` retry transient failures — a
    structured ``overloaded`` rejection (backpressure: the queue was full
    *right then*) or a reset/closed connection (a server or fleet shard
    restarting under us) — with jittered exponential backoff
    (``retry_backoff`` base, ``retry_cap`` ceiling, both seconds),
    reconnecting first when the transport died. Every other error code
    (``bad_request``, ``deadline_exceeded``, ...) still raises
    immediately: those are answers, not weather. Performed retries
    accumulate on :attr:`n_retries` (read by the load generator's report).
    """

    def __init__(self, host: str, port: int, *, timeout: float = 60.0,
                 retries: int = 0, retry_backoff: float = 0.05,
                 retry_cap: float = 2.0, seed: int | None = None) -> None:
        if retries < 0:
            raise ValueError(f"ServeClient: retries must be >= 0, got {retries}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.n_retries = 0
        self._retries = retries
        self._retry_backoff = retry_backoff
        self._retry_cap = retry_cap
        self._rng = Random(seed)
        self._next_id = 0
        self._connect()

    def _connect(self) -> None:
        self._sock = socket.create_connection((self.host, self.port),
                                              timeout=self.timeout)
        self._file = self._sock.makefile("rwb")

    def _reconnect(self) -> None:
        try:
            self.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        self._connect()

    # ------------------------------------------------------------------ core
    def request(self, rtype: str, *, deadline: float | None = None,
                **params: Any) -> dict[str, Any]:
        """Send one request, block for its response, return the result.

        Raises
        ------
        ServeError
            With the server's error ``code`` on a failure response, or
            ``code="internal"`` on a broken/closed connection — after the
            retry budget, if one was configured, is exhausted.
        """
        last_exc: ServeError | None = None
        for attempt in range(self._retries + 1):
            if attempt:
                self.n_retries += 1
                base = min(self._retry_backoff * (2 ** (attempt - 1)),
                           self._retry_cap)
                time.sleep(base * (0.5 + self._rng.random()))
            # A fresh id per attempt: retrying a rejected id on the same
            # connection would trip the server's duplicate-id guard.
            self._next_id += 1
            message: dict[str, Any] = {"type": rtype, "id": self._next_id,
                                       **params}
            if deadline is not None:
                message["deadline"] = deadline
            try:
                self._file.write(encode(message))
                self._file.flush()
                line = self._file.readline()
            except (OSError, ValueError) as exc:
                last_exc = ServeError(f"connection failed: {exc}", code="internal")
                if attempt < self._retries:
                    self._reconnect()
                    continue
                raise last_exc from exc
            if not line:
                last_exc = ServeError("connection closed by server",
                                      code="internal")
                if attempt < self._retries:
                    self._reconnect()
                    continue
                raise last_exc
            try:
                return _raise_for_error(decode_response(line))
            except ServeError as exc:
                if exc.code == OVERLOADED and attempt < self._retries:
                    last_exc = exc
                    continue
                raise
        raise last_exc if last_exc is not None else ServeError(
            "request failed", code="internal")  # pragma: no cover

    # ------------------------------------------------------------- shorthands
    def plan(self, network: dict[str, Any], horizon: float, *,
             refine: bool = False, base: int = 2,
             deadline: float | None = None, **extra: Any) -> dict[str, Any]:
        """``plan`` request; returns the result (``result["plan"]`` is the
        :func:`~repro.io.plan_json.plan_to_dict` document)."""
        return self.request("plan", network=network, horizon=horizon,
                            refine=refine, base=base, deadline=deadline, **extra)

    def simulate(self, network: dict[str, Any], plan: dict[str, Any], *,
                 deadline: float | None = None, **extra: Any) -> dict[str, Any]:
        """``simulate`` request; returns the metrics dict."""
        return self.request("simulate", network=network, plan=plan,
                            deadline=deadline, **extra)

    def stats(self) -> dict[str, Any]:
        """Live server statistics (obs counters/timers, queue, caches)."""
        return self.request("stats")

    def health(self) -> dict[str, Any]:
        """Liveness/readiness snapshot."""
        return self.request("health")

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


@dataclass
class LoadReport:
    """What one :meth:`LoadGenerator.run` measured."""

    concurrency: int
    n_requests: int = 0
    n_ok: int = 0
    n_rejected: int = 0      # structured `overloaded` responses
    n_deadline: int = 0      # structured `deadline_exceeded` responses
    n_failed: int = 0        # anything else that was not ok
    n_retries: int = 0       # client-side retry attempts actually performed
    duration: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    coalesced: int = 0       # server-side serve.coalesced delta
    plan_cache_hits: int = 0  # server-side serve.plan_cache.hit delta
    planner_runs: int = 0    # server-side plan.calls delta (actual executions)

    @property
    def throughput(self) -> float:
        """Completed requests per second (all outcomes)."""
        return self.n_requests / self.duration if self.duration > 0 else 0.0

    def latency_summary(self) -> dict[str, float]:
        lats = self.latencies_ms
        return {
            "p50": percentile(lats, 50),
            "p95": percentile(lats, 95),
            "p99": percentile(lats, 99),
            "mean": sum(lats) / len(lats) if lats else float("nan"),
            "max": max(lats) if lats else float("nan"),
        }

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready summary (latencies collapsed to percentiles)."""
        return {
            "concurrency": self.concurrency,
            "n_requests": self.n_requests,
            "n_ok": self.n_ok,
            "n_rejected": self.n_rejected,
            "n_deadline": self.n_deadline,
            "n_failed": self.n_failed,
            "n_retries": self.n_retries,
            "duration_s": self.duration,
            "throughput_rps": self.throughput,
            "latency_ms": self.latency_summary(),
            "coalesced": self.coalesced,
            "plan_cache_hits": self.plan_cache_hits,
            "planner_runs": self.planner_runs,
        }


class LoadGenerator:
    """Drive a request mix at a fixed concurrency and measure it.

    ``requests`` is a list of ``(type, params)`` pairs; worker threads pull
    from it in order (shared cursor), each over its own connection, so the
    wire behaviour matches ``concurrency`` independent clients.

    ``retries`` is handed to every :class:`ServeClient` (transient-failure
    retry budget; attempts performed land in ``LoadReport.n_retries``).
    """

    def __init__(self, host: str, port: int, *, concurrency: int = 4,
                 timeout: float = 120.0, retries: int = 0) -> None:
        if concurrency < 1:
            raise ValueError(f"LoadGenerator: concurrency must be >= 1, got {concurrency}")
        self.host = host
        self.port = port
        self.concurrency = concurrency
        self.timeout = timeout
        self.retries = retries

    def run(self, requests: list[tuple[str, dict[str, Any]]],
            *, start_barrier: bool = True) -> LoadReport:
        """Execute the mix; returns the filled :class:`LoadReport`.

        With ``start_barrier`` (default) all threads connect first and
        release together, so the initial burst is genuinely concurrent —
        what the coalescing assertions in the tests rely on.
        """
        before = self._server_counters()
        t0 = time.perf_counter()
        report = self._run_threads(requests, start_barrier)
        report.duration = time.perf_counter() - t0
        after = self._server_counters()
        report.coalesced = int(after.get("serve.coalesced", 0)
                               - before.get("serve.coalesced", 0))
        report.plan_cache_hits = int(after.get("serve.plan_cache.hit", 0)
                                     - before.get("serve.plan_cache.hit", 0))
        report.planner_runs = int(after.get("plan.calls", 0)
                                  - before.get("plan.calls", 0))
        return report

    def _run_threads(self, requests: list[tuple[str, dict[str, Any]]],
                     start_barrier: bool) -> LoadReport:
        report = LoadReport(concurrency=self.concurrency)
        cursor = {"i": 0}
        lock = threading.Lock()
        barrier = threading.Barrier(self.concurrency) if start_barrier else None

        def worker() -> None:
            with ServeClient(self.host, self.port, timeout=self.timeout,
                             retries=self.retries) as client:
                if barrier is not None:
                    barrier.wait(timeout=self.timeout)
                while True:
                    with lock:
                        i = cursor["i"]
                        if i >= len(requests):
                            break
                        cursor["i"] = i + 1
                    rtype, params = requests[i]
                    t0 = time.perf_counter()
                    try:
                        client.request(rtype, **params)
                        outcome = "ok"
                    except ServeError as exc:
                        outcome = exc.code
                    latency = (time.perf_counter() - t0) * 1e3
                    with lock:
                        report.n_requests += 1
                        report.latencies_ms.append(latency)
                        if outcome == "ok":
                            report.n_ok += 1
                        elif outcome == OVERLOADED:
                            report.n_rejected += 1
                        elif outcome == DEADLINE_EXCEEDED:
                            report.n_deadline += 1
                        else:
                            report.n_failed += 1
                with lock:
                    report.n_retries += client.n_retries

        threads = [threading.Thread(target=worker, daemon=True)
                   for _ in range(self.concurrency)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return report

    def _server_counters(self) -> dict[str, float]:
        try:
            with ServeClient(self.host, self.port, timeout=self.timeout) as client:
                return dict(client.stats().get("counters", {}))
        except (OSError, ServeError):  # stats are best-effort decoration
            return {}
