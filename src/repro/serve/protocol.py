"""The planning service's wire protocol: newline-delimited JSON.

One request per line, one response per line, UTF-8, ``\\n``-terminated.
Requests carry a ``type`` (one of :data:`REQUEST_TYPES`), an optional
``id`` (any JSON value, echoed verbatim on the response so clients can
pipeline), an optional ``deadline`` (seconds the caller is willing to
wait), and type-specific parameters::

    {"type": "plan", "id": 1, "network": {...}, "horizon": 1000.0}
    {"type": "simulate", "id": 2, "network": {...}, "plan": {...}}
    {"type": "stats", "id": 3}
    {"type": "health", "id": 4}
    {"type": "watch", "id": 5, "interval": 1.0}

Responses are ``{"id": ..., "ok": true, "result": {...}}`` on success and
``{"id": ..., "ok": false, "error": {"code": ..., "message": ...}}`` on
failure.

``watch`` is special: after its ``ok`` acknowledgement the connection is
**upgraded to a server-push subscription** — the server emits one NDJSON
metric-delta frame (``{"stream": "watch", "seq": N, ...}``; see
:mod:`repro.obs.live`) every ``interval`` seconds until the client closes
the connection or the server drains. No further requests are accepted on
an upgraded connection. Error codes are a closed set (:data:`ERROR_CODES`) so clients can
switch on them:

=========================== ================================================
``bad_request``             malformed JSON / unknown type / invalid payload
``overloaded``              admission queue full — retry later (backpressure)
``deadline_exceeded``       the per-request deadline elapsed first
``shutting_down``           server is draining; no new work accepted
``shard_unavailable``       fleet router: no live shard can own the request
                            (every candidate dead or still restarting)
``internal``                unexpected server-side failure
=========================== ================================================

The ``network`` and ``plan`` payloads are exactly the documents produced by
:func:`repro.io.network_json.network_to_dict` and
:func:`repro.io.plan_json.plan_to_dict` — the service's wire format *is*
the repo's archival format, so a saved ``network.json`` body can be pasted
into a ``plan`` request unchanged.

A ``plan`` request may still carry the ``kernel_backend`` field that
older clients sent to pick between output-identical planner kernels.
For this protocol version the field is ignored, whatever its value: the
request plans, coalesces and hits the response cache exactly as it would
without it.

This module is pure (no sockets): framing, validation and the
request/response constructors, shared by server and client and unit-tested
without any I/O.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ServeError

__all__ = [
    "PROTOCOL_VERSION",
    "REQUEST_TYPES",
    "ERROR_CODES",
    "BAD_REQUEST",
    "OVERLOADED",
    "DEADLINE_EXCEEDED",
    "SHUTTING_DOWN",
    "SHARD_UNAVAILABLE",
    "INTERNAL",
    "Request",
    "decode_request",
    "decode_response",
    "encode",
    "ok_response",
    "error_response",
    "raise_for_error",
]

#: Bumped on wire-visible changes; reported by ``health``.
#: v3 added the ``watch`` subscription upgrade and richer ``stats``
#: (gauges / active spans / quantile sketches).
PROTOCOL_VERSION = 3

#: The request types the service answers.
REQUEST_TYPES = ("plan", "simulate", "stats", "health", "watch")

BAD_REQUEST = "bad_request"
OVERLOADED = "overloaded"
DEADLINE_EXCEEDED = "deadline_exceeded"
SHUTTING_DOWN = "shutting_down"
SHARD_UNAVAILABLE = "shard_unavailable"
INTERNAL = "internal"

#: The closed error-code set clients may switch on.
ERROR_CODES = (BAD_REQUEST, OVERLOADED, DEADLINE_EXCEEDED, SHUTTING_DOWN,
               SHARD_UNAVAILABLE, INTERNAL)

#: Top-level request keys that are protocol envelope, not command payload.
_ENVELOPE_KEYS = frozenset({"type", "id", "deadline"})


@dataclass(frozen=True)
class Request:
    """One decoded request line.

    Parameters
    ----------
    type:
        One of :data:`REQUEST_TYPES`.
    id:
        Opaque client-chosen correlation value (echoed on the response);
        ``None`` when the client sent none.
    deadline:
        Seconds the client is willing to wait, or ``None`` for the server's
        default.
    params:
        Everything else on the request object (``network``, ``horizon``,
        ``refine``, ...), handed to the command handler untouched.
    """

    type: str
    id: Any = None
    deadline: float | None = None
    params: dict[str, Any] = field(default_factory=dict)


def decode_request(line: str | bytes) -> Request:
    """Parse and validate one request line.

    Raises
    ------
    ServeError
        With ``code="bad_request"`` on anything that is not a JSON object
        with a known ``type`` and a well-formed envelope.
    """
    try:
        data = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ServeError(f"request is not valid JSON: {exc}", code=BAD_REQUEST) from exc
    if not isinstance(data, dict):
        raise ServeError(
            f"request must be a JSON object, got {type(data).__name__}", code=BAD_REQUEST)
    rtype = data.get("type")
    if rtype not in REQUEST_TYPES:
        raise ServeError(
            f"unknown request type {rtype!r} (expected one of {', '.join(REQUEST_TYPES)})",
            code=BAD_REQUEST)
    deadline = data.get("deadline")
    if deadline is not None:
        try:
            deadline = float(deadline)
        except (TypeError, ValueError) as exc:
            raise ServeError(
                f"deadline must be a number of seconds, got {data['deadline']!r}",
                code=BAD_REQUEST) from exc
        if deadline <= 0:
            raise ServeError(
                f"deadline must be > 0 seconds, got {deadline}", code=BAD_REQUEST)
    params = {k: v for k, v in data.items() if k not in _ENVELOPE_KEYS}
    return Request(type=rtype, id=data.get("id"), deadline=deadline, params=params)


def encode(message: dict[str, Any]) -> bytes:
    """One wire frame: compact JSON plus the terminating newline."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def ok_response(request_id: Any, result: dict[str, Any]) -> dict[str, Any]:
    """A success response envelope."""
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id: Any, code: str, message: str) -> dict[str, Any]:
    """A failure response envelope; ``code`` must be in :data:`ERROR_CODES`."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    return {"id": request_id, "ok": False, "error": {"code": code, "message": message}}


def decode_response(line: str | bytes) -> dict[str, Any]:
    """Parse and shape-check one response line (the client's half).

    Raises
    ------
    ServeError
        With ``code="internal"`` if the server sent something that is not a
        valid response envelope.
    """
    try:
        data = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ServeError(f"response is not valid JSON: {exc}", code=INTERNAL) from exc
    if not isinstance(data, dict) or "ok" not in data:
        raise ServeError(f"malformed response envelope: {data!r}", code=INTERNAL)
    if data["ok"]:
        if not isinstance(data.get("result"), dict):
            raise ServeError(f"ok response without result object: {data!r}", code=INTERNAL)
    else:
        err = data.get("error")
        if not isinstance(err, dict) or "code" not in err or "message" not in err:
            raise ServeError(f"error response without error object: {data!r}", code=INTERNAL)
    return data


def raise_for_error(response: dict[str, Any]) -> dict[str, Any]:
    """Return ``response["result"]``, raising :class:`ServeError` on failure."""
    if response.get("ok"):
        return response["result"]
    err = response.get("error", {})
    raise ServeError(str(err.get("message", "unknown server error")),
                     code=str(err.get("code", INTERNAL)))
