"""The NDJSON front end shared by ``repro serve`` and the fleet router.

A :class:`FrontEnd` owns everything between the socket and a decoded
:class:`~repro.serve.protocol.Request`; a subclass only answers requests
(:meth:`FrontEnd._dispatch`) and opens watch streams
(:meth:`FrontEnd._watch_session`):

* **Framing** — one response line per non-blank request line, in order;
  a line over ``max_line_bytes`` is answered ``bad_request`` and closes
  the connection.
* **Id hygiene** — an id reused within the connection's last
  :data:`SEEN_IDS_LIMIT` is a ``bad_request`` (``<prefix>.duplicate_id``).
* **Accounting** — ``<prefix>.requests[.<type>]``, ``<prefix>.failed[.<code>]``
  for every error answered, a marked ``<prefix>.request`` span, and
  ``trim_trace`` after each request.
* **Drain** — :meth:`FrontEnd.shutdown` closes the listener, lets busy
  requests finish and write (up to the drain bound), answers all but
  ``health``/``stats`` with ``shutting_down`` meanwhile, then cancels.
* **Watch** — a valid ``watch`` upgrades its connection to one pushed
  frame per interval, outside the busy count, so it never holds up drain.

:class:`FrontEndThread` hosts a front end on a daemon thread.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Any

from repro.errors import ServeError
from repro.obs.instrument import Instrumentation, trim_trace
from repro.obs.log import get_logger
from repro.serve.protocol import (
    BAD_REQUEST,
    INTERNAL,
    PROTOCOL_VERSION,
    SHUTTING_DOWN,
    Request,
    decode_request,
    encode,
    error_response,
    ok_response,
)

__all__ = ["FrontEnd", "FrontEndThread", "DRAIN_TIMEOUT", "MAX_TRACE_EVENTS"]

log = get_logger(__name__)

#: Per-connection window of remembered request ids. Responses come back
#: in order, so the window only needs to catch accidental immediate reuse.
SEEN_IDS_LIMIT = 1024
#: Default seconds :meth:`FrontEnd.shutdown` waits for busy requests.
DRAIN_TIMEOUT = 10.0
#: Default bound on a front end's trace events (see ``trim_trace``).
MAX_TRACE_EVENTS = 10_000
#: Request types still answered while draining.
_DRAIN_EXEMPT = frozenset({"health", "stats"})


class FrontEnd:
    """One NDJSON TCP endpoint (see the module docstring).

    ``config`` needs ``host``, ``port`` and ``max_line_bytes``; ``prefix``
    names the counter family and the request span (``serve``/``fleet``).
    """

    prefix = "frontend"

    def __init__(self, config: Any, obs: Instrumentation | None = None) -> None:
        self.config = config
        self.obs = obs if obs is not None else Instrumentation()
        self.drain_timeout = DRAIN_TIMEOUT
        self.max_trace_events = MAX_TRACE_EVENTS
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._conns: set[asyncio.Task] = set()
        self._busy = 0
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopped = asyncio.Event()
        self._t0 = time.monotonic()

    # ------------------------------------------------------- subclass hooks
    async def _dispatch(self, req: Request) -> dict[str, Any]:
        """Answer one decoded, non-``watch`` request."""
        raise NotImplementedError

    def _watch_session(self, req: Request, interval: float) -> tuple[dict[str, Any], Any]:
        """Open one subscription: ``(ack fields, frame source)``; the source
        has ``frame()`` and optionally an ``aclose()`` coroutine."""
        raise NotImplementedError

    async def _open(self) -> None:
        """Acquire resources before the listener opens."""

    async def _close(self) -> None:
        """Release resources after every connection has ended."""

    # -------------------------------------------------------------- lifecycle
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` to the real one)."""
        if self._server is None or not self._server.sockets:
            raise ServeError(f"{self.prefix} front end is not started", code=INTERNAL)
        host, port = self._server.sockets[0].getsockname()[:2]
        return str(host), int(port)

    async def start(self) -> None:
        """Run :meth:`_open`, then start listening."""
        if self._server is not None:
            raise ServeError(f"{self.prefix} front end already started", code=INTERNAL)
        self._loop = asyncio.get_running_loop()
        await self._open()
        self._t0 = time.monotonic()
        cfg = self.config
        self._server = await asyncio.start_server(
            self._serve_conn, cfg.host, cfg.port, limit=cfg.max_line_bytes)

    async def wait_stopped(self) -> None:
        """Block until :meth:`shutdown` completes."""
        await self._stopped.wait()

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop accepting work, drain busy requests (up to ``drain_timeout``
        unless ``drain=False``), cancel the rest, run :meth:`_close`.
        Idempotent."""
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        if drain and not self._idle.is_set():
            try:
                await asyncio.wait_for(self._idle.wait(), self.drain_timeout)
            except asyncio.TimeoutError:
                log.warning("%s: drain timed out with %d request(s) busy",
                            self.prefix, self._busy)
        for task in list(self._conns):
            task.cancel()
        if self._conns:
            await asyncio.gather(*self._conns, return_exceptions=True)
        if self._server is not None:  # from 3.12 this waits for connections
            await self._server.wait_closed()
        await self._close()
        self._stopped.set()

    # ------------------------------------------------------------ connections
    async def _serve_conn(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        """The one request loop: read, answer, repeat until EOF."""
        task = asyncio.current_task()
        if task is not None:
            self._conns.add(task)
        seen_ids: OrderedDict[str, None] = OrderedDict()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # request line exceeded max_line_bytes
                    self.obs.incr(f"{self.prefix}.requests")
                    writer.write(encode(self._failed(error_response(
                        None, BAD_REQUEST,
                        f"request line exceeds {self.config.max_line_bytes} bytes"))))
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                req = self._decode_line(line, seen_ids)
                if isinstance(req, Request) and req.type == "watch":
                    await self._watch(req, reader, writer)
                    break
                self._busy += 1
                self._idle.clear()
                try:
                    response = req if isinstance(req, dict) else await self._answer(req)
                    writer.write(encode(response))
                    await writer.drain()
                finally:
                    self._busy -= 1
                    if self._busy == 0:
                        self._idle.set()
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

    def _decode_line(self, line: bytes, seen_ids: OrderedDict[str, None]
                     ) -> Request | dict[str, Any]:
        """Decode one line: the request to serve, or the error to answer."""
        o, p = self.obs, self.prefix
        o.incr(f"{p}.requests")
        try:
            req = decode_request(line)
        except ServeError as exc:
            return self._failed(error_response(None, exc.code, str(exc)))
        if req.id is not None:
            # Ids are free-form JSON; canonicalise to a hashable key.
            id_key = json.dumps(req.id, sort_keys=True, default=str)
            if id_key in seen_ids:
                o.incr(f"{p}.duplicate_id")
                return self._failed(error_response(
                    req.id, BAD_REQUEST,
                    f"duplicate request id {req.id!r} on this connection"))
            seen_ids[id_key] = None
            while len(seen_ids) > SEEN_IDS_LIMIT:
                seen_ids.popitem(last=False)
        o.incr(f"{p}.requests.{req.type}")
        if self._draining and req.type not in _DRAIN_EXEMPT:
            return self._failed(error_response(
                req.id, SHUTTING_DOWN, f"{p} is draining"))
        if req.type == "watch":
            try:
                float(req.params.get("interval", 1.0))
            except (TypeError, ValueError):
                return self._failed(error_response(
                    req.id, BAD_REQUEST,
                    f"watch interval must be a number of seconds, "
                    f"got {req.params.get('interval')!r}"))
        return req

    async def _answer(self, req: Request) -> dict[str, Any]:
        with self.obs.span(f"{self.prefix}.request", _mark=True, type=req.type):
            response = await self._dispatch(req)
        if not response["ok"]:
            self._failed(response)
        trim_trace(self.obs, self.max_trace_events)
        return response

    def _failed(self, response: dict[str, Any]) -> dict[str, Any]:
        """Count one error response; returns it unchanged."""
        self.obs.incr(f"{self.prefix}.failed")
        self.obs.incr(f"{self.prefix}.failed.{response['error']['code']}")
        return response

    # ------------------------------------------------------------ watch stream
    async def _watch(self, req: Request, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        """Push one frame per interval until the client sends anything
        (EOF included) or the endpoint stops. The frame source lives only
        as long as the subscription: unwatched endpoints pay nothing."""
        interval = max(0.05, float(req.params.get("interval", 1.0)))
        info, session = self._watch_session(req, interval)
        self.obs.incr(f"{self.prefix}.watch.subscribed")
        eof = asyncio.ensure_future(reader.read())
        try:
            writer.write(encode(ok_response(req.id, {
                "stream": "watch", **info, "interval": interval,
                "protocol": PROTOCOL_VERSION})))
            await writer.drain()
            while True:
                done, _ = await asyncio.wait({eof}, timeout=interval)
                if done or writer.is_closing() or self._draining:
                    break
                writer.write(encode(session.frame().to_dict()))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            eof.cancel()
            aclose = getattr(session, "aclose", None)
            if aclose is not None:
                await aclose()
            self.obs.incr(f"{self.prefix}.watch.closed")


class FrontEndThread:
    """A :class:`FrontEnd` on a daemon thread with its own event loop, for
    blocking code: :meth:`start` returns once it listens, :meth:`stop`
    drains and joins."""

    def __init__(self, frontend: FrontEnd, *, name: str) -> None:
        self.frontend = frontend
        self.name = name
        self.address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> tuple[str, int]:
        """Start the front end; returns the bound ``(host, port)``."""
        booted: Future = Future()

        async def run() -> None:
            try:
                await self.frontend.start()
            except BaseException as exc:  # noqa: BLE001 - reported to starter
                booted.set_exception(exc)
                return
            booted.set_result(self.frontend.address)
            await self.frontend.wait_stopped()

        def main() -> None:
            try:
                loop.run_until_complete(run())
            finally:
                loop.close()

        self._loop = loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=main, name=self.name, daemon=True)
        self._thread.start()
        try:
            self.address = booted.result(timeout=30)
        except FutureTimeout:
            raise ServeError(f"{self.name} thread did not start within 30s") from None
        return self.address

    def stop(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Shut the front end down (draining by default), then join."""
        if self._loop is None or self._thread is None:
            return
        if self._thread.is_alive():
            fut = asyncio.run_coroutine_threadsafe(
                self.frontend.shutdown(drain=drain), self._loop)
            try:
                fut.result(timeout=timeout)
            except (asyncio.TimeoutError, TimeoutError):  # pragma: no cover
                pass
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "FrontEndThread":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
