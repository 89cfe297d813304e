"""Shard lifecycle for the planning fleet: spawn, monitor, restart.

A fleet is N independent :mod:`repro.serve` backends ("shards") behind one
router. This module owns their lifetime:

* :class:`ThreadShard` — a shard as an in-process
  :class:`~repro.serve.server.ServerThread`. Cheap to boot and to kill,
  which is what the tests and the fleet differential use;
  its :meth:`~ThreadShard.kill` is abrupt (no drain), so in-flight
  requests surface as ``shutting_down``/reset — the failure the router's
  fail-over must absorb.
* :class:`ProcessShard` — a shard as a real ``repro serve`` subprocess
  (its own interpreter, its own GIL: true CPU scale-out). The child
  publishes its bound ephemeral port through ``--port-file``; kill is
  SIGKILL, the honest crash.
* :class:`ShardSupervisor` — holds the shard set, polls liveness from a
  daemon thread, and restarts dead shards with jittered exponential
  backoff (bounded attempts per incident). Membership changes (down /
  restarted-at-a-new-address) are reported through callbacks, which is
  how the router learns to rebalance its ring.

All shards of one fleet share a single on-disk
:class:`~repro.plan.store.PlanArtifactStore` root (tier 3): anything one
shard computes is write-through published for every other shard — and for
the shard's own replacement after a restart.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable, Protocol

from repro.errors import ConfigError, ServeError
from repro.obs.instrument import Instrumentation, ensure
from repro.obs.log import get_logger

__all__ = ["ShardSpec", "ThreadShard", "ProcessShard", "ShardSupervisor"]

log = get_logger(__name__)


@dataclass(frozen=True)
class ShardSpec:
    """What one backend shard should run with.

    ``workers``/``executor``/``queue_limit``/``cache_entries`` mirror
    :class:`~repro.serve.server.ServeConfig`; ``cache_dir`` is the shared
    tier-3 store root (the same directory for every shard of a fleet).
    """

    shard_id: str
    workers: int = 1
    executor: str = "thread"
    queue_limit: int = 64
    default_deadline: float | None = 60.0
    cache_entries: int | None = 4096
    cache_dir: str | None = None


class ShardHandle(Protocol):
    """The lifecycle surface the supervisor drives."""

    spec: ShardSpec

    @property
    def address(self) -> tuple[str, int]: ...

    def alive(self) -> bool: ...

    def start(self) -> tuple[str, int]: ...

    def kill(self) -> None: ...

    def stop(self) -> None: ...


class ThreadShard:
    """A shard hosted on an in-process server thread (tests / differential)."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self._srv = None

    @property
    def address(self) -> tuple[str, int]:
        if self._srv is None or self._srv.address is None:
            raise ServeError(f"shard {self.spec.shard_id} is not running")
        return self._srv.address

    def alive(self) -> bool:
        return (self._srv is not None and self._srv._thread is not None
                and self._srv._thread.is_alive())

    def start(self) -> tuple[str, int]:
        from repro.serve.server import ServeConfig, ServerThread

        spec = self.spec
        self._srv = ServerThread(ServeConfig(
            port=0, workers=spec.workers, executor=spec.executor,
            queue_limit=spec.queue_limit,
            default_deadline=spec.default_deadline,
            cache_entries=spec.cache_entries, cache_dir=spec.cache_dir,
            drain_timeout=5.0))
        return self._srv.start()

    def kill(self) -> None:
        """Abrupt death: no drain — in-flight requests see cancellation."""
        if self._srv is not None:
            self._srv.stop(drain=False, timeout=10.0)
            self._srv = None

    def stop(self) -> None:
        """Graceful stop (drains, flushes the tier-3 store)."""
        if self._srv is not None:
            self._srv.stop(drain=True, timeout=30.0)
            self._srv = None


class ProcessShard:
    """A shard as a ``repro serve`` subprocess (true CPU parallelism)."""

    #: Seconds to wait for the child to publish its port.
    BOOT_TIMEOUT = 60.0

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self._proc: subprocess.Popen | None = None
        self._address: tuple[str, int] | None = None

    @property
    def address(self) -> tuple[str, int]:
        if self._address is None:
            raise ServeError(f"shard {self.spec.shard_id} is not running")
        return self._address

    def alive(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    def start(self) -> tuple[str, int]:
        spec = self.spec
        port_file = Path(tempfile.mkstemp(prefix=f"repro-shard-{spec.shard_id}-",
                                          suffix=".port")[1])
        port_file.unlink()  # the child recreates it atomically when bound
        cmd = [sys.executable, "-m", "repro", "serve",
               "--host", "127.0.0.1", "--port", "0",
               "--workers", str(spec.workers), "--executor", spec.executor,
               "--queue-limit", str(spec.queue_limit),
               "--deadline", str(spec.default_deadline or 0),
               "--port-file", str(port_file)]
        if spec.cache_dir is not None:
            cmd += ["--cache-dir", spec.cache_dir]
        self._proc = subprocess.Popen(cmd)
        deadline = time.monotonic() + self.BOOT_TIMEOUT
        while time.monotonic() < deadline:
            if self._proc.poll() is not None:
                raise ServeError(
                    f"shard {spec.shard_id} exited during boot "
                    f"(code {self._proc.returncode})")
            try:
                host, _, port = port_file.read_text().strip().partition(":")
                if port:
                    self._address = (host, int(port))
                    port_file.unlink()
                    return self._address
            except (FileNotFoundError, ValueError):
                pass
            time.sleep(0.05)
        self.kill()
        raise ServeError(f"shard {spec.shard_id} did not publish a port within "
                         f"{self.BOOT_TIMEOUT:g}s")

    def kill(self) -> None:
        """SIGKILL the shard process: the honest mid-request crash."""
        if self._proc is not None:
            self._proc.kill()
            self._proc.wait(timeout=30)
            self._proc = None
            self._address = None

    def stop(self) -> None:
        """SIGTERM (graceful drain inside the shard), then reap."""
        if self._proc is None:
            return
        self._proc.terminate()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - wedged child
            self._proc.kill()
            self._proc.wait(timeout=30)
        self._proc = None
        self._address = None


@dataclass
class _Incident:
    """Restart-backoff state for one shard."""

    attempts: int = 0
    next_try: float = 0.0


class ShardSupervisor:
    """Monitor a set of shard handles; restart the dead, report membership.

    Parameters
    ----------
    handles:
        Started (or startable) shard handles, one per shard id.
    on_down / on_up:
        Callbacks ``(shard_id)`` / ``(shard_id, address)`` fired from the
        monitor thread when a shard is found dead / restarted. The router
        uses these to take the shard out of (back into) rotation.
    max_restarts:
        Restart attempts per death incident before the shard is abandoned
        (left down, still reported via ``on_down``).
    backoff / backoff_cap:
        Base and cap (seconds) of the jittered exponential restart delay.
    poll_interval:
        Liveness poll period of the monitor thread.
    seed:
        Seeds the backoff jitter (deterministic tests).
    """

    def __init__(self, handles: dict[str, ShardHandle], *,
                 on_down: Callable[[str], None] | None = None,
                 on_up: Callable[[str, tuple[str, int]], None] | None = None,
                 max_restarts: int = 3, backoff: float = 0.1,
                 backoff_cap: float = 5.0, poll_interval: float = 0.2,
                 seed: int | None = None,
                 obs: Instrumentation | None = None) -> None:
        if max_restarts < 0:
            raise ConfigError(
                f"ShardSupervisor: max_restarts must be >= 0, got {max_restarts}")
        self.handles = dict(handles)
        self.obs = ensure(obs)
        self._on_down = on_down
        self._on_up = on_up
        self._max_restarts = max_restarts
        self._backoff = backoff
        self._backoff_cap = backoff_cap
        self._poll = poll_interval
        self._rng = Random(seed)
        self._incidents: dict[str, _Incident] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Start the monitor thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._monitor, name="repro-fleet-supervisor", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop monitoring (the shards themselves are left to their owner)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    # -------------------------------------------------------------- internals
    def _restart_delay(self, attempts: int) -> float:
        base = min(self._backoff * (2 ** attempts), self._backoff_cap)
        return base * (0.5 + self._rng.random())  # jitter in [0.5, 1.5) * base

    def _monitor(self) -> None:
        while not self._stop.wait(self._poll):
            for shard_id, handle in self.handles.items():
                if handle.alive():
                    self._incidents.pop(shard_id, None)
                    continue
                incident = self._incidents.get(shard_id)
                if incident is None:
                    incident = self._incidents[shard_id] = _Incident()
                    self.obs.incr("fleet.shard.down")
                    log.warning("fleet: shard %s is down", shard_id)
                    if self._on_down is not None:
                        self._on_down(shard_id)
                    incident.next_try = (time.monotonic()
                                         + self._restart_delay(0))
                if incident.attempts >= self._max_restarts:
                    continue  # abandoned; stays reported down
                if time.monotonic() < incident.next_try:
                    continue
                incident.attempts += 1
                try:
                    address = handle.start()
                except Exception as exc:  # noqa: BLE001 - retried with backoff
                    self.obs.incr("fleet.shard.restart_failed")
                    log.warning("fleet: restart %d/%d of shard %s failed: %s",
                                incident.attempts, self._max_restarts,
                                shard_id, exc)
                    incident.next_try = (time.monotonic()
                                         + self._restart_delay(incident.attempts))
                    continue
                self.obs.incr("fleet.shard.restarts")
                log.info("fleet: shard %s restarted at %s:%d (attempt %d)",
                         shard_id, address[0], address[1], incident.attempts)
                self._incidents.pop(shard_id, None)
                if self._on_up is not None:
                    self._on_up(shard_id, address)
