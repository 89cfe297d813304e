"""Assembling a whole fleet: shards + supervisor + router, one lifetime.

:class:`Fleet` is the blocking embedding shape (the fleet counterpart of
:class:`~repro.serve.server.ServerThread`): it boots N shards, wires a
:class:`~repro.fleet.supervisor.ShardSupervisor` to a
:class:`~repro.fleet.router.FleetRouter` hosted on a daemon thread
(:class:`~repro.serve.frontend.FrontEndThread`), and
hands back the router's ``(host, port)``. Integration tests, the fleet
differential and the benchmarks all drive fleets through it; :func:`serve_fleet` wraps it for the ``repro fleet`` CLI command.
"""

from __future__ import annotations

import signal
import threading

from repro.obs.instrument import Instrumentation
from repro.obs.log import get_logger
from repro.serve.frontend import FrontEndThread
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


class Fleet(FrontEndThread):
    """One running fleet: the router's thread host plus its shards.

    Usable as a context manager. ``start()`` boots every shard first (so
    the router never opens with an empty ring), then the router thread,
    then the supervisor — teardown is the exact reverse.
    :meth:`kill_shard` is the fault-injection hook: it kills the shard
    *without telling the router*, exactly like a real crash, so the
    fail-over path (transport error → ring successor) and the supervisor
    (detect → restart → rejoin) are both exercised.
    """

    def __init__(self, config: FleetConfig | None = None,
                 obs: Instrumentation | None = None) -> None:
        self.config = config if config is not None else FleetConfig()
        self.obs = obs if obs is not None else Instrumentation()
        self.router = FleetRouter(self.config, obs=self.obs)
        self.shards: dict[str, ShardHandle] = {}
        self.supervisor: ShardSupervisor | None = None
        super().__init__(self.router, name="repro-fleet-router")

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
            host, port = super().start()
        except BaseException:
            self.stop()
            raise
        self.supervisor = ShardSupervisor(
            self.shards, on_down=self.router.mark_down,
            on_up=self.router.mark_up, max_restarts=cfg.max_restarts,
            poll_interval=cfg.supervisor_poll, seed=cfg.seed, obs=self.obs)
        self.supervisor.start()
        log.info("fleet: %d %s shard(s) behind %s:%d (shared store: %s)",
                 cfg.shards, cfg.shard_mode, host, port,
                 cfg.cache_dir or "none")
        return host, port

    def stop(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Supervisor first (no resurrections), then router, then shards.

        The router drains: requests it is forwarding finish against the
        still-running shards and reach their clients; new work meanwhile
        is answered ``shutting_down``.
        """
        if self.supervisor is not None:
            self.supervisor.stop()
            self.supervisor = None
        super().stop(drain=drain, timeout=timeout)
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
