"""Fault injection against the serving stack over real sockets.

Corrupt frames, misbehaving clients and dying workers must all land inside
the protocol's closed error-code set — the server never answers with a
traceback, never wedges, and never leaks worker processes. The
killed-worker path additionally exercises the executor rebuild: the
triggering request fails ``internal``, the pool is replaced once, and the
next request is served normally.
"""

from __future__ import annotations

import json
import multiprocessing
import socket
import time

import pytest

from repro.check.faults import raw_exchange, run_fault_suite, send_truncated
from repro.errors import ServeError
from repro.io.network_json import network_to_dict
from repro.network.builder import build_paper_network
from repro.obs import Instrumentation
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.serve.protocol import BAD_REQUEST, ERROR_CODES, INTERNAL


@pytest.fixture(scope="module")
def net():
    return network_to_dict(build_paper_network(n=16, q=2, seed=5))


def _config(**overrides):
    defaults = dict(executor="thread", workers=2, queue_limit=8,
                    default_deadline=60.0, drain_timeout=5.0,
                    max_line_bytes=64 * 1024)
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestEdgeFrames:
    """Regression: every corrupt frame maps into the closed error set."""

    def test_oversized_line_is_bad_request(self):
        with ServerThread(_config()) as srv:
            resp = raw_exchange(srv.address,
                                b'{"pad": "' + b"x" * 200_000 + b'"}\n')
            assert resp["ok"] is False
            assert resp["error"]["code"] == BAD_REQUEST
            assert "exceeds" in resp["error"]["message"]

    def test_truncated_frame_mid_read_survives(self, net):
        with ServerThread(_config()) as srv:
            send_truncated(srv.address, b'{"type": "plan", "horizon": 3')
            # The half-written request must not poison the listener.
            with ServeClient(*srv.address) as c:
                assert c.health()["status"] == "ok"

    def test_unknown_request_type_is_bad_request(self):
        with ServerThread(_config()) as srv:
            resp = raw_exchange(srv.address, b'{"type": "frobnicate"}\n')
            assert resp["ok"] is False
            assert resp["error"]["code"] == BAD_REQUEST

    def test_duplicate_request_id_is_bad_request(self):
        obs = Instrumentation()
        with ServerThread(_config(), obs=obs) as srv:
            with socket.create_connection(srv.address, timeout=30) as sock:
                f = sock.makefile("rwb")
                f.write(b'{"type": "health", "id": "a"}\n'
                        b'{"type": "health", "id": "a"}\n'
                        b'{"type": "health", "id": "b"}\n')
                f.flush()
                first = json.loads(f.readline())
                second = json.loads(f.readline())
                third = json.loads(f.readline())
        assert first["ok"] is True
        assert second["ok"] is False
        assert second["error"]["code"] == BAD_REQUEST
        assert "duplicate" in second["error"]["message"]
        assert third["ok"] is True  # fresh ids keep working
        assert obs.counters["serve.duplicate_id"] == 1

    def test_duplicate_id_scope_is_per_connection(self):
        with ServerThread(_config()) as srv:
            a = raw_exchange(srv.address, b'{"type": "health", "id": 1}\n')
            b = raw_exchange(srv.address, b'{"type": "health", "id": 1}\n')
        assert a["ok"] is True
        assert b["ok"] is True  # new connection, fresh id space

    def test_every_answered_error_is_in_the_closed_set(self):
        frames = [b"not json at all\n",
                  b'{"type": "frobnicate"}\n',
                  b'[1, 2, 3]\n',
                  b'{"no_type": true}\n']
        with ServerThread(_config()) as srv:
            for frame in frames:
                resp = raw_exchange(srv.address, frame)
                assert resp["ok"] is False, frame
                assert resp["error"]["code"] in ERROR_CODES, frame
                assert "Traceback" not in resp["error"]["message"], frame


class TestInjectedWorkerFaults:
    def test_full_thread_fault_suite_clean(self):
        # One harness, both endpoints: a node and a fleet router share the
        # front end, so every fault must land identically on each.
        for endpoint in ("serve", "fleet"):
            obs = Instrumentation()
            failures = run_fault_suite(obs, endpoint=endpoint)
            assert failures == [], "\n".join(str(f) for f in failures)
            # oversized line, truncated frame (its partial line is decoded
            # at EOF), binary garbage, unknown type and duplicate id are
            # each rejected and counted by the endpoint's own front end
            assert obs.counters[f"{endpoint}.failed.{BAD_REQUEST}"] == 5
            assert obs.counters[f"{endpoint}.duplicate_id"] == 1
            assert obs.counters[f"{endpoint}.failed.{INTERNAL}"] == 1

    def test_mid_request_disconnect_keeps_serving(self, net):
        with ServerThread(_config()) as srv:
            with socket.create_connection(srv.address, timeout=30) as sock:
                payload = dict(type="plan", network=net, horizon=100.0,
                               delay=1.0, id=1)
                sock.sendall(json.dumps(payload).encode() + b"\n")
                # Vanish while the job is in flight.
            with ServeClient(*srv.address) as c:
                assert c.health()["status"] == "ok"
                assert "plan" in c.plan(net, 50.0)

    def test_drain_with_injected_faults_in_flight(self, net):
        srv = ServerThread(_config())
        srv.start()
        with ServeClient(*srv.address) as c:
            try:
                c.plan(net, 30.0, fault="exception")
            except ServeError:
                pass
        srv.stop()  # must not hang or raise


class TestKilledProcessWorker:
    """The real BrokenProcessPool path needs a process executor."""

    def test_killed_worker_rebuilds_pool_and_recovers(self, net):
        obs = Instrumentation()
        config = _config(executor="process", workers=1, cache_entries=64)
        with ServerThread(config, obs=obs) as srv:
            with ServeClient(*srv.address, timeout=120) as c:
                with pytest.raises(ServeError) as err:
                    c.plan(net, 40.0, fault="kill", deadline=60.0)
                assert err.value.code == INTERNAL
                # The pool was rebuilt exactly once and serves again.
                result = c.plan(net, 40.0, deadline=60.0)
                assert "plan" in result
                stats = c.stats()
                assert stats["counters"]["serve.executor_rebuilt"] == 1

        # No worker processes may outlive the server.
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children():
            assert time.monotonic() < deadline, (
                f"leaked workers: {multiprocessing.active_children()}")
            time.sleep(0.1)
