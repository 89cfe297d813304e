"""The programs under test as owned process groups.

Every ``repro serve`` / ``repro fleet`` the benchmark boots runs in a
session of its own, so the whole tree it spawns (process-pool workers,
fleet shards) shares one process-group id. That gives three things from
``/proc`` alone: the serving CPU time of the whole tree, its peak resident
memory, and a teardown that provably leaves nothing behind.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.errors import ServeError
from repro.serve.client import ServeClient

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    """Fields 3.. of ``/proc/<pid>/stat`` (after the parenthesised name)."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return raw[raw.rindex(")") + 2:].split()


def group_pids(pgid: int) -> list[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None and int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def group_cpu_seconds(pgid: int) -> float:
    """utime + stime + cutime + cstime summed over the process group."""
    total = 0
    for pid in group_pids(pgid):
        fields = _stat_fields(pid)
        if fields is not None:
            total += sum(int(v) for v in fields[11:15])
    return total / _CLK_TCK


def group_hwm_mb(pgid: int) -> float:
    """Sum of ``VmHWM`` (peak resident set) over the process group, in MB."""
    total_kb = 0
    for pid in group_pids(pgid):
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def free_port() -> int:
    """An ephemeral port that was free a moment ago (for ``fleet --port``)."""
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return int(s.getsockname()[1])


class Service:
    """One booted ``python -m repro <argv>`` and everything it spawns.

    ``port_file`` (serve) or ``port`` (fleet) tells :meth:`start` how to
    find the listening address. ``ready_probe`` is called with a connected
    :class:`ServeClient` and must raise until the program is ready.
    """

    BOOT_TIMEOUT = 90.0
    STOP_TIMEOUT = 30.0

    def __init__(self, argv: list[str], *, env: dict[str, str], log_path: Path,
                 port_file: Path | None = None, port: int | None = None) -> None:
        self.argv = [sys.executable, "-m", "repro", *argv]
        self.env = env
        self.log_path = log_path
        self.port_file = port_file
        self.port = port
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.boot_s = float("nan")

    @property
    def pgid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def start(self, ready_probe) -> float:
        """Spawn and wait until ``ready_probe`` passes; returns boot seconds."""
        t0 = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(self.argv, env=self.env, stdout=log,
                                         stderr=log, stdin=subprocess.DEVNULL,
                                         start_new_session=True)
        deadline = t0 + self.BOOT_TIMEOUT
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"{' '.join(self.argv[2:])} exited during boot "
                                   f"(code {self.proc.returncode}); see {self.log_path}")
            if time.perf_counter() > deadline:
                raise RuntimeError(f"{' '.join(self.argv[2:])} not ready within "
                                   f"{self.BOOT_TIMEOUT:g}s; see {self.log_path}")
            address = self._poll_address()
            if address is not None:
                try:
                    with ServeClient(*address, timeout=30.0) as client:
                        ready_probe(client)
                except (OSError, ServeError):
                    pass
                else:
                    self.address = address
                    break
            time.sleep(0.01)
        self.boot_s = time.perf_counter() - t0
        return self.boot_s

    def _poll_address(self) -> tuple[str, int] | None:
        if self.port_file is not None:
            try:
                host, _, port = self.port_file.read_text().strip().partition(":")
                return (host, int(port)) if port else None
            except (OSError, ValueError):
                return None
        return ("127.0.0.1", int(self.port)) if self.port is not None else None

    def stop(self) -> None:
        """SIGTERM the leader (graceful drain), then SIGKILL any straggler
        in the group, and wait until no member of the group is left."""
        if self.proc is None:
            return
        pgid = self.pgid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=self.STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                pass
        deadline = time.monotonic() + self.STOP_TIMEOUT
        while group_pids(pgid):
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            if self.proc.poll() is None:
                try:
                    self.proc.wait(timeout=1.0)
                except subprocess.TimeoutExpired:
                    pass
            if time.monotonic() > deadline:
                raise RuntimeError(f"process group {pgid} survived SIGKILL")
            time.sleep(0.02)
        self.proc.wait()
        self.proc = None
