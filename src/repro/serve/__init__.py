"""repro.serve — the long-lived asyncio planning service.

Turns the library's one-shot planners into an online dispatcher: a
stdlib-only TCP server speaking newline-delimited JSON
(:mod:`repro.serve.protocol`) that keeps warm
:class:`~repro.plan.cache.PlanArtifactCache` state resident and answers
``plan`` / ``simulate`` / ``stats`` / ``health`` requests under latency
deadlines — with single-flight request coalescing, bounded-queue
backpressure and graceful drain (:mod:`repro.serve.server`). CPU-bound
work runs on a process (or thread) pool (:mod:`repro.serve.worker`);
:mod:`repro.serve.client` is the blocking client plus the concurrent
load generator.

Start one with ``repro serve`` or embed it::

    from repro.serve import PlanningServer, ServeConfig
    server = PlanningServer(ServeConfig(port=7351, workers=4))
    await server.start()

See ``docs/ARCHITECTURE.md`` (Serving section) for the request lifecycle
and ``docs/OBSERVABILITY.md`` for the ``serve.*`` metrics.
"""

from repro.serve.client import LoadGenerator, LoadReport, ServeClient, percentile
from repro.serve.protocol import (
    ERROR_CODES,
    PROTOCOL_VERSION,
    REQUEST_TYPES,
    Request,
    decode_request,
    decode_response,
    encode,
    error_response,
    ok_response,
)
from repro.serve.server import (
    PlanningServer,
    ServeConfig,
    ServerThread,
    plan_key,
    serve,
)

__all__ = [
    "ERROR_CODES",
    "LoadGenerator",
    "LoadReport",
    "PROTOCOL_VERSION",
    "PlanningServer",
    "REQUEST_TYPES",
    "Request",
    "ServeClient",
    "ServeConfig",
    "ServerThread",
    "decode_request",
    "decode_response",
    "encode",
    "error_response",
    "ok_response",
    "percentile",
    "plan_key",
    "serve",
]
