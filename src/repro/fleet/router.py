"""The fleet's front-end router: one address, N planning shards behind it.

Clients speak the unchanged :mod:`repro.serve.protocol` to the router;
the router consistent-hashes every ``plan``/``simulate`` request on the
network's geometry fingerprint (:class:`~repro.fleet.hashring.HashRing`)
so all requests for one geometry land on the same backend shard — that
shard's warm :class:`~repro.plan.cache.PlanArtifactCache` and
single-flight coalescing keep absorbing repeats exactly as they do on a
single node. ``stats``/``health`` fan out to every live shard and come
back aggregated (summed counters), so an unmodified
:class:`~repro.serve.client.LoadGenerator` pointed at the router measures
the whole fleet.

Fail-over: when a shard dies mid-request (connection reset, EOF, or a
structured ``shutting_down`` from a process that was killed under us),
the router retries the next shard in the key's ring preference order
with jittered backoff — bounded attempts, after which the client gets a
structured ``shard_unavailable``. Because planning is pure, replaying
the request on another shard is safe, and the shared tier-3
:class:`~repro.plan.store.PlanArtifactStore` means the successor often
serves the retry warm. Shard membership changes (deaths and restarts,
reported by the :class:`~repro.fleet.supervisor.ShardSupervisor`) only
filter the ring at route time: the ring itself is static over all shard
ids, so a dead shard's keys fall deterministically to the next preferred
shard and fall *back* when it returns — no rehashing storms.

The router keys on the same :attr:`SensorNetwork.geometry_fingerprint`
the shards compute: it decodes the request's network document with the
shards' own columnar decoder (:func:`~repro.serve.server.request_network`)
and hashes its coordinates, so routing stays O(payload) with no O(n^2)
distance-matrix work on the front end.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from dataclasses import dataclass
from random import Random
from typing import Any

from repro.errors import ConfigError, ReproError
from repro.obs.instrument import Instrumentation
from repro.obs.live import (
    DeltaEmitter,
    LiveAggregator,
    WatchFrame,
    gauge_table,
    is_frame_line,
    merge_counter_tables,
    merge_sketch_tables,
    merge_stat_tables,
    quantile_table,
)
from repro.obs.log import get_logger
from repro.serve.frontend import FrontEnd
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    SHARD_UNAVAILABLE,
    SHUTTING_DOWN,
    Request,
    encode,
    error_response,
    ok_response,
)
from repro.serve.server import request_network

from repro.fleet.hashring import HashRing

__all__ = ["FleetConfig", "FleetRouter", "routing_key"]

log = get_logger(__name__)

#: Request types that are sharded (everything else fans out).
_SHARDED_TYPES = frozenset({"plan", "simulate"})


def routing_key(params: dict[str, Any]) -> str:
    """The consistent-hash key of one ``plan``/``simulate`` request.

    The ``SensorNetwork.geometry_fingerprint`` of the request's network,
    decoded exactly as a shard decodes it. A request whose network is
    malformed still routes — by the sha256 of its canonical JSON — so the
    owning shard's validation produces the same ``bad_request`` a single
    node would.
    """
    try:
        return request_network(params).geometry_fingerprint
    except ReproError:
        return hashlib.sha256(
            json.dumps(params, sort_keys=True, default=str).encode("utf-8")
        ).hexdigest()


@dataclass(frozen=True)
class FleetConfig:
    """Shape of one planning fleet (router + shards + shared store).

    Parameters
    ----------
    host / port:
        The router's listening address (``port=0`` picks ephemeral).
    shards:
        Number of backend shards.
    shard_mode:
        ``"thread"`` — in-process :class:`~repro.fleet.supervisor.ThreadShard`
        backends (cheap; correctness tests, differential);
        ``"process"`` — real ``repro serve`` subprocesses (true CPU
        scale-out; production and the throughput benchmark).
    workers / executor / queue_limit / default_deadline / cache_entries:
        Per-shard serving knobs (see
        :class:`~repro.serve.server.ServeConfig`).
    cache_dir:
        Shared tier-3 :class:`~repro.plan.store.PlanArtifactStore` root —
        the *same* directory for every shard, so one shard's computed plan
        is warm for all (the store is multi-process safe by construction).
    retries:
        Fail-over candidates tried *after* the primary before the client
        gets ``shard_unavailable``.
    retry_backoff / retry_cap:
        Base and cap (seconds) of the jittered exponential delay between
        fail-over attempts.
    vnodes:
        Ring points per shard (see :class:`~repro.fleet.hashring.HashRing`).
    max_restarts:
        Supervisor restart budget per shard death incident.
    seed:
        Seeds backoff jitter (deterministic tests).
    """

    host: str = "127.0.0.1"
    port: int = 0
    shards: int = 2
    shard_mode: str = "thread"
    workers: int = 1
    executor: str = "thread"
    queue_limit: int = 64
    default_deadline: float | None = 60.0
    cache_entries: int | None = 4096
    cache_dir: str | None = None
    retries: int = 2
    retry_backoff: float = 0.05
    retry_cap: float = 1.0
    vnodes: int = 256
    connect_timeout: float = 15.0
    max_line_bytes: int = 8 * 1024 * 1024
    max_restarts: int = 3
    supervisor_poll: float = 0.2
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigError(f"fleet: shards must be >= 1, got {self.shards}")
        if self.shard_mode not in ("thread", "process"):
            raise ConfigError(
                f"fleet: shard_mode must be 'thread' or 'process', "
                f"got {self.shard_mode!r}")
        if self.retries < 0:
            raise ConfigError(f"fleet: retries must be >= 0, got {self.retries}")

    def shard_ids(self) -> list[str]:
        return [f"shard-{i}" for i in range(self.shards)]


class _BackendConn:
    """One pooled connection to a shard; one request in flight at a time.

    The router rewrites request ids per backend connection (restoring the
    client's id on the response) so pooling many clients onto few backend
    connections can never trip the server's duplicate-id rejection.
    """

    __slots__ = ("reader", "writer", "_next_id")

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self._next_id = 0

    async def roundtrip(self, message: dict[str, Any]) -> dict[str, Any]:
        """Forward ``message``; return the response with the client id back."""
        self._next_id += 1
        self.writer.write(encode(dict(message, id=self._next_id)))
        await self.writer.drain()
        line = await self.reader.readline()
        if not line:
            raise ConnectionResetError("shard closed the connection")
        response = json.loads(line)
        if not isinstance(response, dict):
            raise ConnectionResetError(f"shard sent a non-object line: {line!r}")
        response["id"] = message.get("id")
        return response

    def close(self) -> None:
        self.writer.close()


class _WatchSession:
    """One client's ``watch`` subscription on the router.

    Subscribes to every live shard's own watch stream (a dedicated
    connection per shard — never pooled, the stream owns it), folds the
    shard delta frames into a :class:`~repro.obs.live.LiveAggregator`, and
    mixes in the router's own counters via a local
    :class:`~repro.obs.live.DeltaEmitter` — so aggregate-frame counter
    totals match the ``stats`` fan-out (router + shard counters summed).
    Supervisor membership changes arrive through :meth:`on_down` /
    :meth:`on_up` and surface as ``shard_down`` / ``shard_up`` events on
    the client's next aggregate frame.
    """

    def __init__(self, router: "FleetRouter", interval: float) -> None:
        self._router = router
        self.interval = interval
        self.aggregator = LiveAggregator()
        self._emitter = DeltaEmitter(router.obs, source="router")
        self._pumps: dict[str, asyncio.Task] = {}
        self._events: list[dict] = []

    # ----------------------------------------------------------- subscriptions
    def subscribe(self, shard_id: str) -> None:
        old = self._pumps.get(shard_id)
        if old is not None and not old.done():
            return
        self._pumps[shard_id] = asyncio.get_running_loop().create_task(
            self._pump(shard_id))

    async def _pump(self, shard_id: str) -> None:
        """Read one shard's watch stream into the aggregator until it ends."""
        cfg = self._router.config
        try:
            host, port = self._router._addresses[shard_id]
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port,
                                        limit=cfg.max_line_bytes),
                timeout=cfg.connect_timeout)
        except (KeyError, OSError, asyncio.TimeoutError):
            return
        try:
            writer.write(encode({"type": "watch", "id": f"watch:{shard_id}",
                                 "interval": max(0.05, self.interval / 2.0),
                                 "source": shard_id}))
            await writer.drain()
            ack = await reader.readline()
            if not ack or not json.loads(ack).get("ok"):
                return
            while True:
                line = await reader.readline()
                if not line:
                    return
                data = json.loads(line)
                if isinstance(data, dict) and is_frame_line(data):
                    self.aggregator.ingest(WatchFrame.from_dict(data))
        except (OSError, ValueError, asyncio.IncompleteReadError):
            return
        except asyncio.CancelledError:
            raise
        finally:
            writer.close()

    # ------------------------------------------------------------- membership
    def on_down(self, shard_id: str) -> None:
        task = self._pumps.pop(shard_id, None)
        if task is not None:
            task.cancel()
        self.aggregator.mark_down(shard_id)
        self._events.append({"event": "shard_down", "shard": shard_id})

    def on_up(self, shard_id: str) -> None:
        self.aggregator.mark_up(shard_id)
        self._events.append({"event": "shard_up", "shard": shard_id})
        self.subscribe(shard_id)

    # ------------------------------------------------------------------ frames
    def frame(self) -> WatchFrame:
        # Fold the router's own counter deltas in before aggregating. The
        # router is not a shard: keep it out of the up/down membership view.
        self.aggregator.ingest(self._emitter.frame())
        self.aggregator.up.pop("router", None)
        events, self._events = self._events, []
        return self.aggregator.frame(source="fleet", events=events)

    async def aclose(self) -> None:
        self._router._watchers.discard(self)
        tasks = [t for t in self._pumps.values() if not t.done()]
        self._pumps.clear()
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)


class FleetRouter(FrontEnd):
    """The asyncio front-end process of a planning fleet.

    Construct, :meth:`register` every shard, then ``await start()``. Shard
    membership changes arrive through :meth:`mark_down` /
    :meth:`mark_up` — both safe to call from other threads (the
    supervisor's monitor), scheduled onto the router loop. Framing, id
    hygiene, drain and the ``watch`` upgrade come from
    :class:`~repro.serve.frontend.FrontEnd`, exactly as on a single node.
    """

    prefix = "fleet"

    def __init__(self, config: FleetConfig | None = None,
                 obs: Instrumentation | None = None) -> None:
        super().__init__(config if config is not None else FleetConfig(), obs)
        self._ring = HashRing(vnodes=self.config.vnodes)
        self._addresses: dict[str, tuple[str, int]] = {}
        self._live: set[str] = set()
        self._pools: dict[str, list[_BackendConn]] = {}
        self._inflight: dict[str, int] = {}
        self._rng = Random(self.config.seed)
        self._watchers: set[_WatchSession] = set()

    # ------------------------------------------------------------- membership
    def register(self, shard_id: str, address: tuple[str, int]) -> None:
        """Add a shard to the ring and mark it live (pre-start wiring)."""
        self._ring.add(shard_id)
        self._addresses[shard_id] = address
        self._inflight.setdefault(shard_id, 0)
        self._live.add(shard_id)

    def mark_down(self, shard_id: str) -> None:
        """Take a shard out of rotation (its keys fall over on the ring).

        Thread-safe: hops onto the router loop when called from outside it.
        """
        self._call_on_loop(self._mark_down, shard_id)

    def mark_up(self, shard_id: str, address: tuple[str, int]) -> None:
        """Return a (restarted) shard to rotation at ``address``."""
        self._call_on_loop(self._mark_up, shard_id, address)

    def _call_on_loop(self, fn, *args) -> None:
        loop = self._loop
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if loop is not None and loop is not running and loop.is_running():
            loop.call_soon_threadsafe(fn, *args)
        else:
            fn(*args)

    def _mark_down(self, shard_id: str) -> None:
        if shard_id in self._live:
            self._live.discard(shard_id)
            self.obs.incr("fleet.rebalanced")
            log.warning("fleet: shard %s out of rotation (%d/%d live)",
                        shard_id, len(self._live), len(self._ring))
            for session in self._watchers:
                session.on_down(shard_id)
        for conn in self._pools.pop(shard_id, []):
            conn.close()

    def _mark_up(self, shard_id: str, address: tuple[str, int]) -> None:
        self._ring.add(shard_id)  # no-op for known shards
        self._addresses[shard_id] = address
        self._inflight.setdefault(shard_id, 0)
        if shard_id not in self._live:
            self._live.add(shard_id)
            self.obs.incr("fleet.rejoined")
            log.info("fleet: shard %s back in rotation at %s:%d",
                     shard_id, address[0], address[1])
            for session in self._watchers:
                session.on_up(shard_id)

    @property
    def live_shards(self) -> frozenset[str]:
        return frozenset(self._live)

    # -------------------------------------------------------------- lifecycle
    async def _close(self) -> None:
        """Drop every pooled backend connection."""
        for pool in self._pools.values():
            for conn in pool:
                conn.close()
        self._pools.clear()

    # --------------------------------------------------------------- requests
    async def _dispatch(self, req: Request) -> dict[str, Any]:
        message = {"type": req.type, "id": req.id, **req.params}
        if req.deadline is not None:
            message["deadline"] = req.deadline
        if req.type in _SHARDED_TYPES:
            return await self._route(req.params, message)
        return await self._fan_out(req.type, message)

    def _watch_session(self, req: Request, interval: float
                       ) -> tuple[dict[str, Any], "_WatchSession"]:
        """Fleet-wide subscription (see :class:`_WatchSession`).

        Emits one ``kind="aggregate"`` frame per interval: counters summed
        across router + shards, gauges per-shard + max, quantiles merged
        from sketches, shard up/down states, and any supervisor membership
        events since the previous frame.
        """
        session = _WatchSession(self, interval)
        self._watchers.add(session)
        for shard_id in sorted(self._live):
            session.subscribe(shard_id)
        return ({"role": "fleet-router", "source": "fleet",
                 "shards": sorted(self._live)}, session)

    # ----------------------------------------------------------- forwarding
    async def _acquire(self, shard_id: str) -> _BackendConn:
        pool = self._pools.setdefault(shard_id, [])
        while pool:
            conn = pool.pop()
            if not conn.writer.is_closing():
                return conn
            conn.close()
        host, port = self._addresses[shard_id]
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port,
                                    limit=self.config.max_line_bytes),
            timeout=self.config.connect_timeout)
        return _BackendConn(reader, writer)

    def _release(self, shard_id: str, conn: _BackendConn) -> None:
        if shard_id in self._live and not conn.writer.is_closing():
            self._pools.setdefault(shard_id, []).append(conn)
        else:
            conn.close()

    async def _forward(self, shard_id: str,
                       message: dict[str, Any]) -> dict[str, Any]:
        """One attempt against one shard; raises on transport failure."""
        conn = await self._acquire(shard_id)
        self._inflight[shard_id] = self._inflight.get(shard_id, 0) + 1
        self.obs.observe(f"fleet.shard.{shard_id}.inflight",
                         self._inflight[shard_id])
        try:
            response = await conn.roundtrip(message)
        except BaseException:
            conn.close()
            raise
        else:
            self._release(shard_id, conn)
            return response
        finally:
            self._inflight[shard_id] -= 1

    async def _route(self, params: dict[str, Any],
                     message: dict[str, Any]) -> dict[str, Any]:
        """Shard-routed path (``plan``/``simulate``) with bounded fail-over."""
        key = routing_key(params)
        preference = [s for s in self._ring.route(key) if s in self._live]
        request_id = message.get("id")
        if not preference:
            self.obs.incr("fleet.shard_unavailable")
            return error_response(request_id, SHARD_UNAVAILABLE,
                                  "no live shard in the fleet")
        attempts = min(len(preference), 1 + self.config.retries)
        last_failure = "no attempt made"
        for i, shard_id in enumerate(preference[:attempts]):
            if i > 0:
                self.obs.incr("fleet.failover")
                base = min(self.config.retry_backoff * (2 ** (i - 1)),
                           self.config.retry_cap)
                await asyncio.sleep(base * (0.5 + self._rng.random()))
            self.obs.incr("fleet.routed")
            try:
                response = await self._forward(shard_id, message)
            except (OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError, ValueError) as exc:
                # Transport-level death: the shard dropped us mid-request.
                self.obs.incr("fleet.retried")
                last_failure = f"{shard_id}: {exc.__class__.__name__}: {exc}"
                log.warning("fleet: attempt %d on %s failed (%s)",
                            i + 1, shard_id, last_failure)
                continue
            error = None if response.get("ok") else response.get("error", {})
            if error is not None and error.get("code") == SHUTTING_DOWN:
                # A draining/killed shard is a fleet-internal condition —
                # the next replica serves it; the client never sees it.
                self.obs.incr("fleet.retried")
                last_failure = f"{shard_id}: shutting_down"
                continue
            if i > 0:
                self.obs.incr("fleet.failover.served")
            return response
        self.obs.incr("fleet.shard_unavailable")
        return error_response(
            request_id, SHARD_UNAVAILABLE,
            f"request failed on {attempts} shard(s); last: {last_failure}")

    # ------------------------------------------------------------ aggregation
    async def _fan_out(self, rtype: str,
                       message: dict[str, Any]) -> dict[str, Any]:
        """``stats``/``health``: ask every live shard, aggregate the answers."""
        shard_ids = sorted(self._live)
        request_id = message.get("id")

        async def one(shard_id: str) -> tuple[str, dict[str, Any] | None]:
            try:
                return shard_id, await self._forward(shard_id, message)
            except (OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError, ValueError):
                return shard_id, None

        replies = dict(await asyncio.gather(*(one(s) for s in shard_ids)))
        results = {s: r["result"] for s, r in replies.items()
                   if r is not None and r.get("ok")}
        if rtype == "health":
            return ok_response(request_id, self._aggregate_health(results))
        return ok_response(request_id, self._aggregate_stats(results))

    def _aggregate_health(self, results: dict[str, dict]) -> dict[str, Any]:
        healthy = {s for s, h in results.items() if h.get("status") == "ok"}
        status = "ok" if len(healthy) == len(self._ring) else (
            "degraded" if healthy else "down")
        return {
            "status": status,
            "role": "fleet-router",
            "protocol": PROTOCOL_VERSION,
            "uptime": time.monotonic() - self._t0,
            "pending": sum(h.get("pending", 0) for h in results.values()),
            "shards_total": len(self._ring),
            "shards_live": len(self._live),
            "shards": results,
        }

    def _aggregate_stats(self, results: dict[str, dict]) -> dict[str, Any]:
        """Fold per-shard stats with per-metric-kind rules (obs.live).

        Only *counters* may be summed across shards. Timers and series
        merge their running stats exactly (counts/totals add, min/max
        extremise, means recomputed); gauges like ``serve.queue_depth``
        are reported per-shard plus the fleet ``max``; latency quantiles
        come from merged sketches, never from averaging per-shard
        percentiles. ``repro check fleet`` and the ``watch`` stream both
        rely on these semantics matching a single node's own stats.
        """
        counters = merge_counter_tables(
            [self.obs.counters]
            + [st.get("counters") for st in results.values()])
        per_shard = {
            s: {"pending": st.get("pending", 0),
                "uptime": st.get("uptime", 0.0),
                "inflight": self._inflight.get(s, 0),
                "plan_responses_cached": st.get("plan_responses_cached", 0)}
            for s, st in results.items()
        }
        sketches = merge_sketch_tables(
            st.get("sketches") for st in results.values())
        return {
            "role": "fleet-router",
            "uptime": time.monotonic() - self._t0,
            "pending": sum(d["pending"] for d in per_shard.values()),
            "draining": self._draining,
            # Top-level summed "counters" lets an unmodified LoadGenerator
            # pointed at the router read fleet-wide coalescing/cache deltas
            # exactly as it would from a single node.
            "counters": counters,
            "timers": merge_stat_tables(
                st.get("timers") for st in results.values()),
            "series": merge_stat_tables(
                st.get("series") for st in results.values()),
            "gauges": gauge_table(
                {s: st.get("gauges") or {} for s, st in results.items()}),
            "active_spans": merge_counter_tables(
                st.get("active_spans") for st in results.values()),
            "quantiles": quantile_table(sketches),
            "shards": per_shard,
            "shards_live": sorted(self._live),
        }
