"""Assembling a whole fleet: shards + supervisor + router, one lifetime.

:class:`Fleet` is the blocking embedding shape (the fleet counterpart of
:class:`~repro.serve.server.ServerThread`): it boots N shards, wires a
:class:`~repro.fleet.supervisor.ShardSupervisor` to a
:class:`~repro.fleet.router.FleetRouter` running on a daemon thread, and
hands back the router's ``(host, port)``. Integration tests, the CI
smoke, the fleet differential and the benchmarks all drive fleets through
it; :func:`serve_fleet` wraps it for the ``repro fleet`` CLI command.
"""

from __future__ import annotations

import asyncio
import signal
import threading

from repro.errors import ServeError
from repro.obs.instrument import Instrumentation
from repro.obs.log import get_logger
from repro.fleet.router import FleetConfig, FleetRouter
from repro.fleet.supervisor import (
    ProcessShard,
    ShardHandle,
    ShardSpec,
    ShardSupervisor,
    ThreadShard,
)

__all__ = ["Fleet", "serve_fleet"]

log = get_logger(__name__)


class Fleet:
    """One running fleet; usable as a context manager.

    ``start()`` boots every shard first (so the router never opens with an
    empty ring), then the router thread, then the supervisor — teardown is
    the exact reverse. :meth:`kill_shard` is the fault-injection hook: it
    kills the shard *without telling the router*, exactly like a real
    crash, so the fail-over path (transport error → ring successor) and
    the supervisor (detect → restart → rejoin) are both exercised.
    """

    def __init__(self, config: FleetConfig | None = None,
                 obs: Instrumentation | None = None) -> None:
        self.config = config if config is not None else FleetConfig()
        self.obs = obs if obs is not None else Instrumentation()
        self.router = FleetRouter(self.config, obs=self.obs)
        self.shards: dict[str, ShardHandle] = {}
        self.supervisor: ShardSupervisor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    # -------------------------------------------------------------- lifecycle
    def start(self) -> tuple[str, int]:
        """Boot shards, router and supervisor; returns the router address."""
        cfg = self.config
        shard_cls = ThreadShard if cfg.shard_mode == "thread" else ProcessShard
        try:
            for shard_id in cfg.shard_ids():
                handle = shard_cls(ShardSpec(
                    shard_id=shard_id, workers=cfg.workers,
                    executor=cfg.executor, queue_limit=cfg.queue_limit,
                    default_deadline=cfg.default_deadline,
                    cache_entries=cfg.cache_entries, cache_dir=cfg.cache_dir))
                address = handle.start()
                self.shards[shard_id] = handle
                self.router.register(shard_id, address)
            self._start_router_thread()
        except BaseException:
            self.stop()
            raise
        self.supervisor = ShardSupervisor(
            self.shards, on_down=self.router.mark_down,
            on_up=self.router.mark_up, max_restarts=cfg.max_restarts,
            poll_interval=cfg.supervisor_poll, seed=cfg.seed, obs=self.obs)
        self.supervisor.start()
        host, port = self.router.address
        log.info("fleet: %d %s shard(s) behind %s:%d (shared store: %s)",
                 cfg.shards, cfg.shard_mode, host, port,
                 cfg.cache_dir or "none")
        return host, port

    def _start_router_thread(self) -> None:
        ready = threading.Event()
        boot_error: list[BaseException] = []

        def main() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop

            async def run() -> None:
                try:
                    await self.router.start()
                except BaseException as exc:  # noqa: BLE001 - reported to caller
                    boot_error.append(exc)
                    ready.set()
                    return
                ready.set()
                await self.router.wait_stopped()

            try:
                loop.run_until_complete(run())
            finally:
                loop.close()

        self._thread = threading.Thread(target=main, name="repro-fleet-router",
                                        daemon=True)
        self._thread.start()
        if not ready.wait(timeout=30):
            raise ServeError("fleet router thread did not start within 30s")
        if boot_error:
            raise boot_error[0]

    def stop(self) -> None:
        """Supervisor first (no resurrections), then router, then shards."""
        if self.supervisor is not None:
            self.supervisor.stop()
            self.supervisor = None
        if self._loop is not None and self._thread is not None:
            if self._thread.is_alive():
                fut = asyncio.run_coroutine_threadsafe(
                    self.router.shutdown(), self._loop)
                try:
                    fut.result(timeout=30)
                except (asyncio.TimeoutError, TimeoutError):  # pragma: no cover
                    pass
            self._thread.join(timeout=30)
            self._thread = None
            self._loop = None
        for handle in self.shards.values():
            try:
                handle.stop()
            except Exception:  # noqa: BLE001 - best-effort teardown
                log.warning("fleet: shard %s did not stop cleanly",
                            handle.spec.shard_id)
        self.shards.clear()

    # --------------------------------------------------------- fault injection
    def kill_shard(self, shard_id: str) -> None:
        """Crash one shard abruptly (the router finds out the hard way)."""
        self.shards[shard_id].kill()

    def __enter__(self) -> "Fleet":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


def serve_fleet(config: FleetConfig | None = None,
                obs: Instrumentation | None = None) -> int:
    """Blocking entry point: run a fleet until SIGTERM/SIGINT (the CLI)."""
    stop = threading.Event()

    def on_signal(signum: int, _frame: object) -> None:  # pragma: no cover
        log.info("repro fleet: received signal %s, stopping ...", signum)
        stop.set()

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, on_signal)
        except ValueError:  # pragma: no cover - non-main thread embedding
            pass
    with Fleet(config, obs=obs) as fleet:
        host, port = fleet.router.address
        cfg = fleet.config
        log.info("repro fleet: routing on %s:%d (%d x %s shards, "
                 "retries %d)", host, port, cfg.shards, cfg.shard_mode,
                 cfg.retries)
        # Event.wait with a timeout keeps the main thread responsive to
        # signal handlers that set the event and return.
        while not stop.wait(timeout=0.5):
            pass
    log.info("repro fleet: stopped")
    return 0
