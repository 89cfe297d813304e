"""``watch`` subscription client.

:class:`WatchClient` is the blocking consumer half of the protocol-v3
``watch`` upgrade (:mod:`repro.serve.protocol`): it sends one ``watch``
request, validates the acknowledgement, and then iterates the pushed
NDJSON frames as :class:`~repro.obs.live.WatchFrame` objects, tracking
per-source sequence gaps so a consumer can *prove* it saw every delta.
Like :class:`~repro.serve.client.ServeClient` it is stdlib-only and not
thread-safe — but :meth:`close` may be called from another thread to
unblock a reader (that is how :class:`WatchCollector` shuts down).

The streaming path's end-to-end contracts (a lossless stream, and
watch totals identical to the one-shot ``stats`` fan-out at drain, under
concurrent load through a 2-shard fleet) are tier-1 tests in
``tests/integration/test_watch.py``.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Any, Iterator

from repro.errors import ServeError
from repro.obs.live import WatchFrame, is_frame_line
from repro.serve.protocol import decode_response, encode, raise_for_error

__all__ = ["WatchClient", "WatchCollector"]


class WatchClient:
    """One blocking ``watch`` subscription to a serve node or fleet router.

    Connecting performs the upgrade immediately: the constructor sends the
    ``watch`` request and blocks for the acknowledgement (available as
    :attr:`info` — it names the server's role, the effective interval and
    the protocol version). After that the connection only ever carries
    pushed frames; iterate :meth:`frames` to consume them.

    Attributes
    ----------
    info:
        The acknowledgement result object.
    n_frames:
        Frames decoded so far.
    n_dropped:
        Sequence gaps observed so far, summed across sources. 0 means the
        subscription has provably seen every frame the server emitted.
    """

    def __init__(self, host: str, port: int, *, interval: float = 1.0,
                 source: str | None = None, timeout: float | None = None)\
            -> None:
        self.host = host
        self.port = port
        self.interval = float(interval)
        # A healthy server pushes every `interval`; anything slower than
        # this default is a wedged stream, not a slow one.
        self.timeout = timeout if timeout is not None \
            else max(30.0, self.interval * 20.0)
        self.n_frames = 0
        self.n_dropped = 0
        self._last_seq: dict[str, int] = {}
        self._sock = socket.create_connection((host, port),
                                              timeout=self.timeout)
        self._file = self._sock.makefile("rwb")
        request: dict[str, Any] = {"type": "watch", "id": "watch",
                                   "interval": self.interval}
        if source is not None:
            request["source"] = source
        self._file.write(encode(request))
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ServeError("connection closed before watch acknowledgement",
                             code="internal")
        self.info = raise_for_error(decode_response(line))

    def frames(self) -> Iterator[WatchFrame]:
        """Yield pushed frames until the connection closes (either side).

        Transport teardown — EOF, a reset, or :meth:`close` from another
        thread — ends the iteration; it never raises for those.
        """
        while True:
            try:
                line = self._file.readline()
            except (OSError, ValueError):
                return
            if not line:
                return
            try:
                data = json.loads(line)
            except ValueError:
                continue
            if not isinstance(data, dict) or not is_frame_line(data):
                continue
            frame = WatchFrame.from_dict(data)
            last = self._last_seq.get(frame.source)
            if last is not None and frame.seq > last + 1:
                self.n_dropped += frame.seq - last - 1
            self._last_seq[frame.source] = frame.seq
            self.n_frames += 1
            yield frame

    def close(self) -> None:
        """Tear the subscription down; safe to call from another thread
        (unblocks a reader parked in :meth:`frames`)."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "WatchClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class WatchCollector(threading.Thread):
    """Drains a :class:`WatchClient` on a background thread.

    A driver that holds a subscription open *while* it drives load on the
    main thread needs it consumed concurrently; this collects every frame
    under a lock so the driver can snapshot mid-run.
    """

    def __init__(self, client: WatchClient) -> None:
        super().__init__(name="watch-collector", daemon=True)
        self.client = client
        self._frames: list[WatchFrame] = []
        self._lock = threading.Lock()
        self.start()

    def run(self) -> None:
        for frame in self.client.frames():
            with self._lock:
                self._frames.append(frame)

    def snapshot(self) -> list[WatchFrame]:
        """The frames received so far (a copy; safe to inspect)."""
        with self._lock:
            return list(self._frames)

    def stop(self) -> list[WatchFrame]:
        """Close the subscription, join the thread, return all frames."""
        self.client.close()
        self.join(timeout=10.0)
        return self.snapshot()
