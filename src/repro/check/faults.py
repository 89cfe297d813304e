"""Fault injection for the serve stack.

Drives a real :class:`~repro.serve.server.PlanningServer`, or a fleet
router in front of such servers, through its failure paths with *actual*
faults — raw corrupted frames on the socket, workers that raise or
hard-exit mid-request, clients that vanish — and asserts the contract the
protocol promises:

* every answered failure carries a code from the closed
  :data:`~repro.serve.protocol.ERROR_CODES` set (never a traceback dump),
* one connection's misbehaviour never affects another,
* a broken worker pool is rebuilt and the server keeps serving,
* graceful drain still completes with faults in flight.

:func:`run_fault_suite` is the programmatic entry used by the integration
tests; the raw-socket helpers are exported so tests can compose their own
corruptions.
"""

from __future__ import annotations

import json
import socket
from typing import Any

from repro.check.differential import CheckFailure
from repro.errors import ServeError
from repro.network.builder import build_paper_network
from repro.io.network_json import network_to_dict
from repro.obs.instrument import Instrumentation
from repro.serve.protocol import BAD_REQUEST, DEADLINE_EXCEEDED, ERROR_CODES, INTERNAL

__all__ = ["raw_exchange", "send_truncated", "run_fault_suite"]


def raw_exchange(address: tuple[str, int], payload: bytes, *,
                 timeout: float = 30.0) -> dict[str, Any] | None:
    """Send raw bytes on a fresh connection; decode one response line.

    Bypasses :class:`~repro.serve.client.ServeClient` entirely — the point
    is to put frames on the wire the client could never produce. Returns
    the decoded response dict, or ``None`` if the server closed without
    answering.
    """
    with socket.create_connection(address, timeout=timeout) as sock:
        try:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            # The server may answer and close while we are still writing
            # (e.g. an oversized line is rejected mid-stream); any response
            # it sent is still buffered for recv below.
            pass
        chunks = []
        while True:
            try:
                data = sock.recv(65536)
            except OSError:
                break
            if not data:
                break
            chunks.append(data)
            if b"\n" in data:
                break
    line = b"".join(chunks).split(b"\n", 1)[0]
    if not line.strip():
        return None
    return json.loads(line.decode("utf-8"))


def send_truncated(address: tuple[str, int], payload: bytes, *,
                   timeout: float = 30.0) -> None:
    """Open a connection, send a frame with no terminating newline, and
    disconnect mid-request — the 'client died while writing' fault."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(payload.rstrip(b"\n"))
        # Closing without the newline leaves the server's readline pending;
        # the close must surface as a clean EOF, not an error response.


def _expect_error(response: dict[str, Any] | None, code: str,
                  what: str, failures: list[CheckFailure]) -> None:
    if response is None:
        failures.append(CheckFailure(
            "faults", f"{what}: server closed the connection instead of "
                      f"answering a structured {code!r} error"))
        return
    if response.get("ok") is not False:
        failures.append(CheckFailure(
            "faults", f"{what}: expected an error response, got {response!r}"))
        return
    got = response.get("error", {}).get("code")
    if got not in ERROR_CODES:
        failures.append(CheckFailure(
            "faults", f"{what}: error code {got!r} is outside the closed set "
                      f"{sorted(ERROR_CODES)}"))
    elif got != code:
        failures.append(CheckFailure(
            "faults", f"{what}: expected code {code!r}, got {got!r}"))


def run_fault_suite(obs: Instrumentation | None = None, *,
                    endpoint: str = "serve") -> list[CheckFailure]:
    """Run the in-process (thread-executor) fault suite; returns failures.

    ``endpoint`` picks what the faults hit: ``"serve"`` a single node,
    ``"fleet"`` the router of a thread-mode 2-shard fleet. Both share one
    front end, so both must answer every fault identically. Process-pool
    faults (killed workers) need a real ``ProcessPoolExecutor`` and live
    in the integration tests — this suite covers every fault injectable
    against the cheap thread server.
    """
    from repro.fleet import Fleet, FleetConfig
    from repro.serve.client import ServeClient
    from repro.serve.server import ServeConfig, ServerThread

    failures: list[CheckFailure] = []
    net_doc = network_to_dict(build_paper_network(n=8, q=2, seed=7, side=100.0))
    max_line_bytes = 64 * 1024
    if endpoint == "fleet":
        host = Fleet(FleetConfig(shards=2, shard_mode="thread", workers=2,
                                 executor="thread", default_deadline=60.0,
                                 max_line_bytes=max_line_bytes,
                                 supervisor_poll=30.0, seed=0), obs=obs)
    else:
        host = ServerThread(ServeConfig(
            executor="thread", workers=2, queue_limit=8, default_deadline=60.0,
            drain_timeout=5.0, max_line_bytes=max_line_bytes), obs=obs)

    with host:
        assert host.address is not None
        address = host.address

        # ---- oversized frame: larger than max_line_bytes
        big = b'{"type": "health", "pad": "' + b"x" * (2 * max_line_bytes) + b'"}\n'
        _expect_error(raw_exchange(address, big), BAD_REQUEST,
                      "oversized line", failures)

        # ---- truncated frame then disconnect: server must survive silently
        send_truncated(address, b'{"type": "plan", "horizon": 10')

        # ---- non-JSON garbage
        _expect_error(raw_exchange(address, b"\x00\xff not json\n"),
                      BAD_REQUEST, "binary garbage", failures)

        # ---- unknown request type
        _expect_error(raw_exchange(address, b'{"type": "explode", "id": 1}\n'),
                      BAD_REQUEST, "unknown request type", failures)

        # ---- duplicate request id on one connection
        dup = (b'{"type": "health", "id": 7}\n'
               b'{"type": "health", "id": 7}\n')
        with socket.create_connection(address, timeout=30.0) as sock:
            f = sock.makefile("rwb")
            f.write(dup)
            f.flush()
            first = json.loads(f.readline())
            second = json.loads(f.readline())
        if first.get("ok") is not True:
            failures.append(CheckFailure(
                "faults", f"first use of an id must succeed, got {first!r}"))
        _expect_error(second, BAD_REQUEST, "duplicate request id", failures)

        # ---- worker exception: must map to 'internal', not kill the server
        with ServeClient(*address) as client:
            try:
                client.plan(net_doc, 20.0, fault="exception")
                failures.append(CheckFailure(
                    "faults", "injected worker exception produced an ok "
                              "response"))
            except ServeError as exc:
                if exc.code != INTERNAL:
                    failures.append(CheckFailure(
                        "faults", f"injected worker exception mapped to "
                                  f"{exc.code!r}, expected {INTERNAL!r}"))
            # ---- slow worker past the deadline
            try:
                client.plan(net_doc, 20.0, delay=5.0, deadline=0.2)
                failures.append(CheckFailure(
                    "faults", "request past its deadline returned ok"))
            except ServeError as exc:
                if exc.code != DEADLINE_EXCEEDED:
                    failures.append(CheckFailure(
                        "faults", f"deadline overrun mapped to {exc.code!r}, "
                                  f"expected {DEADLINE_EXCEEDED!r}"))

        # ---- after all that abuse the server still answers cleanly
        with ServeClient(*address) as client:
            health = client.health()
            if health.get("status") != "ok":
                failures.append(CheckFailure(
                    "faults", f"server unhealthy after fault sequence: "
                              f"{health!r}"))
            plan = client.plan(net_doc, 20.0)
            if "plan" not in plan:
                failures.append(CheckFailure(
                    "faults", "post-fault plan request returned no plan"))
    return failures
