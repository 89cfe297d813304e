"""Integration tests for the planning service over real sockets.

Each test starts a real :class:`~repro.serve.server.PlanningServer` on an
ephemeral port (thread-executor mode: fast startup, and the shared locked
:class:`~repro.plan.cache.PlanArtifactCache` path is exactly what the
thread-safety work guards) and talks to it with the blocking client.

The acceptance contracts of the serving PR live here:

* **single-flight coalescing** — N concurrent identical ``plan`` requests
  run the planner exactly once (``plan.calls == 1``) and all N responses
  carry the identical plan document;
* **backpressure** — past ``queue_limit`` the server answers a structured
  ``overloaded`` error immediately rather than queueing/hanging;
* **deadlines** — a too-slow request turns into ``deadline_exceeded``;
* **graceful drain** — shutdown lets an in-flight request finish and
  answer before the connection is torn down.
"""

import json
import socket
import threading
import time

import pytest

from repro.errors import ServeError
from repro.io.network_json import network_to_dict
from repro.network.builder import build_paper_network
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.serve.protocol import (
    BAD_REQUEST,
    DEADLINE_EXCEEDED,
    OVERLOADED,
    SHUTTING_DOWN,
)


@pytest.fixture(scope="module")
def net():
    return network_to_dict(build_paper_network(n=24, q=3, seed=11))


@pytest.fixture(scope="module")
def other_net():
    return network_to_dict(build_paper_network(n=24, q=3, seed=12))


def _config(**overrides):
    defaults = dict(executor="thread", workers=2, queue_limit=32,
                    default_deadline=60.0, drain_timeout=10.0)
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestCommands:
    def test_health_stats_plan_simulate(self, net):
        with ServerThread(_config()) as srv:
            with ServeClient(*srv.address) as c:
                health = c.health()
                assert health["status"] == "ok"
                assert health["workers"] == 2

                result = c.plan(net, 300.0)
                assert result["n_schedulings"] == len(result["plan"]["schedulings"])
                assert result["service_cost"] > 0
                assert result["K"] >= 0

                metrics = c.simulate(net, result["plan"])
                assert metrics["perpetual"] is True
                assert metrics["n_dispatches"] == result["n_schedulings"]
                assert metrics["service_cost"] == pytest.approx(result["service_cost"])

                stats = c.stats()
                assert stats["counters"]["serve.requests.plan"] == 1
                assert stats["counters"]["serve.requests.simulate"] == 1
                assert stats["counters"]["plan.calls"] == 1  # merged worker obs
                assert stats["artifact_cache"]["misses"] > 0
                assert "serve.request" in stats["timers"]
                assert "serve.queue_depth" in stats["series"]

    def test_repeat_is_served_from_response_cache(self, net):
        with ServerThread(_config()) as srv:
            with ServeClient(*srv.address) as c:
                first = c.plan(net, 300.0)
                again = c.plan(net, 300.0)
                assert again.get("cached") is True
                assert again["plan"] == first["plan"]
                stats = c.stats()
                assert stats["counters"]["serve.plan_cache.hit"] == 1
                assert stats["counters"]["plan.calls"] == 1  # planner ran once

    def test_response_cache_hit_encodes_like_the_miss(self, net):
        """The LRU keeps pickled bytes; a hit's wire frame is the miss's
        frame, byte for byte, plus the trailing ``"cached":true``."""
        def line(rid):
            return json.dumps({"id": rid, "type": "plan", "network": net,
                               "horizon": 300.0}).encode() + b"\n"

        with ServerThread(_config()) as srv:
            with socket.create_connection(srv.address, timeout=60) as raw:
                reader = raw.makefile("rb")
                raw.sendall(line(7))
                miss = reader.readline()
                raw.sendall(line(8))  # ids may not repeat on a connection
                hit = reader.readline()
        assert miss.startswith(b'{"id":7,"ok":true,') and miss.endswith(b"}}\n")
        assert b'"cached"' not in miss
        assert hit == (b'{"id":8' + miss[len(b'{"id":7'):-3]
                       + b',"cached":true}}\n')

    def test_response_cache_hits_are_private_copies(self, net):
        """Mutating one hit's document (nested parts included) must not
        leak into the next hit."""
        import asyncio

        from repro.serve.protocol import decode_request
        from repro.serve.server import PlanningServer, plan_key

        req = decode_request(json.dumps(
            {"id": 1, "type": "plan", "network": net, "horizon": 300.0}))
        server = PlanningServer(_config())
        doc = {"plan": {"schedulings": [{"time": 0.0, "tours": 0}]}, "K": 1}
        server._remember(plan_key(req.params), doc)
        doc["plan"]["schedulings"].clear()  # the caller's copy is not the entry
        first = asyncio.run(server._plan(req))["result"]
        assert first == {"plan": {"schedulings": [{"time": 0.0, "tours": 0}]},
                         "K": 1, "cached": True}
        first["plan"]["schedulings"].clear()
        first["K"] = 99
        second = asyncio.run(server._plan(req))["result"]
        assert second == {"plan": {"schedulings": [{"time": 0.0, "tours": 0}]},
                          "K": 1, "cached": True}

    def test_refined_variant_reuses_base_artifacts(self, net):
        with ServerThread(_config()) as srv:
            with ServeClient(*srv.address) as c:
                c.plan(net, 300.0)
                c.plan(net, 300.0, refine=True)  # distinct key, shares base tours
                stats = c.stats()
                assert stats["counters"]["plan.calls"] == 2
                assert stats["counters"].get("plan.cache.base.hit", 0) >= 1

    def test_bad_requests_get_structured_errors(self, net):
        with ServerThread(_config()) as srv:
            host, port = srv.address
            with ServeClient(host, port) as c:
                with pytest.raises(ServeError) as exc:
                    c.request("plan", network={"bogus": True}, horizon=10.0)
                assert exc.value.code == BAD_REQUEST
                with pytest.raises(ServeError) as exc:
                    c.request("plan", network=net)  # no horizon
                assert exc.value.code == BAD_REQUEST

            # raw garbage on the wire: still one structured response line
            with socket.create_connection((host, port), timeout=10) as raw:
                raw.sendall(b"this is not json\n")
                line = raw.makefile("rb").readline()
            data = json.loads(line)
            assert data["ok"] is False
            assert data["error"]["code"] == BAD_REQUEST

    def test_kernel_backend_payload(self, net):
        # The legacy kernel_backend field is ignored, not rejected, for one
        # protocol version: whatever it names, the request returns the
        # plain request's plan bytes from the same response-cache entry.
        with ServerThread(_config()) as srv:
            with ServeClient(*srv.address) as c:
                base = c.plan(net, 300.0)
                for name in ("reference", "fast", "warp-drive"):
                    legacy = c.request("plan", network=net, horizon=300.0,
                                       kernel_backend=name)
                    assert legacy["plan"] == base["plan"]
                    assert legacy.get("cached") is True

    def test_mismatched_simulate_rejected(self, net, other_net):
        with ServerThread(_config()) as srv:
            with ServeClient(*srv.address) as c:
                plan = c.plan(net, 300.0)["plan"]
                bigger = network_to_dict(build_paper_network(n=10, q=2, seed=1))
                with pytest.raises(ServeError) as exc:
                    c.simulate(bigger, plan)  # plan nodes out of range
                assert exc.value.code == BAD_REQUEST


class TestCoalescing:
    N = 6

    def test_concurrent_identical_requests_run_planner_once(self, net):
        """The PR's headline contract: N concurrent identical plans -> one
        planner execution, N identical responses."""
        results: list[dict | None] = [None] * self.N
        errors: list[Exception] = []
        barrier = threading.Barrier(self.N)

        with ServerThread(_config(workers=4, queue_limit=64)) as srv:
            host, port = srv.address

            def hit(i: int) -> None:
                try:
                    with ServeClient(host, port) as c:
                        barrier.wait(timeout=30)
                        results[i] = c.plan(net, 300.0, delay=1.0)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=hit, args=(i,)) for i in range(self.N)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            with ServeClient(host, port) as c:
                counters = c.stats()["counters"]

        assert not errors
        assert all(r is not None for r in results)
        documents = [json.dumps(r["plan"], sort_keys=True) for r in results]
        assert len(set(documents)) == 1  # N identical responses

        assert counters["plan.calls"] == 1  # exactly one planner execution
        coalesced = counters.get("serve.coalesced", 0)
        cache_hits = counters.get("serve.plan_cache.hit", 0)
        assert coalesced >= 1
        assert coalesced + cache_hits == self.N - 1

    def test_distinct_requests_do_not_coalesce(self, net, other_net):
        with ServerThread(_config(workers=4)) as srv:
            with ServeClient(*srv.address) as a, ServeClient(*srv.address) as b:
                ra = a.plan(net, 300.0)
                rb = b.plan(other_net, 300.0)
                assert ra["fingerprint"] != rb["fingerprint"]
                counters = a.stats()["counters"]
            assert counters["plan.calls"] == 2
            assert counters.get("serve.coalesced", 0) == 0


class TestBackpressure:
    def test_saturation_returns_structured_overloaded(self, net, other_net):
        """Bounded-queue overflow must answer immediately, not hang."""
        with ServerThread(_config(workers=1, queue_limit=1)) as srv:
            host, port = srv.address

            slow_result: list[dict] = []

            def slow() -> None:
                with ServeClient(host, port) as c:
                    slow_result.append(c.plan(net, 300.0, delay=1.5))

            t = threading.Thread(target=slow)
            t.start()
            try:
                with ServeClient(host, port) as c:
                    deadline = time.monotonic() + 10
                    while time.monotonic() < deadline:  # wait until it is admitted
                        if c.health()["pending"] >= 1:
                            break
                        time.sleep(0.02)
                    else:
                        pytest.fail("slow request never became pending")

                    t0 = time.monotonic()
                    with pytest.raises(ServeError) as exc:
                        c.plan(other_net, 300.0)  # distinct key: needs a new slot
                    assert exc.value.code == OVERLOADED
                    assert time.monotonic() - t0 < 1.0  # rejected, not queued

                    counters = c.stats()["counters"]
                    assert counters["serve.rejected"] >= 1
            finally:
                t.join(timeout=30)
            assert slow_result  # the admitted request still completed fine

    def test_coalesced_joiner_is_not_rejected(self, net):
        """Joining an in-flight identical plan needs no queue slot."""
        with ServerThread(_config(workers=1, queue_limit=1)) as srv:
            host, port = srv.address
            out: list[dict] = []

            def first() -> None:
                with ServeClient(host, port) as c:
                    out.append(c.plan(net, 300.0, delay=1.0))

            t = threading.Thread(target=first)
            t.start()
            try:
                with ServeClient(host, port) as c:
                    deadline = time.monotonic() + 10
                    while time.monotonic() < deadline:
                        if c.health()["pending"] >= 1:
                            break
                        time.sleep(0.02)
                    joined = c.plan(net, 300.0, delay=1.0)  # same key: coalesces
            finally:
                t.join(timeout=30)
            assert joined["plan"] == out[0]["plan"]


class TestDeadlines:
    def test_deadline_exceeded(self, net):
        with ServerThread(_config()) as srv:
            with ServeClient(*srv.address) as c:
                with pytest.raises(ServeError) as exc:
                    c.plan(net, 300.0, delay=2.0, deadline=0.2)
                assert exc.value.code == DEADLINE_EXCEEDED
                assert c.stats()["counters"]["serve.deadline"] == 1
                # the connection survives a deadline error
                assert c.health()["status"] == "ok"


class TestDrain:
    def test_graceful_drain_finishes_in_flight_request(self, net):
        srv = ServerThread(_config(drain_timeout=15.0))
        host, port = srv.start()
        result: list[dict] = []
        errors: list[Exception] = []
        started = threading.Event()

        def inflight() -> None:
            try:
                with ServeClient(host, port) as c:
                    started.set()
                    result.append(c.plan(net, 300.0, delay=1.0))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        t = threading.Thread(target=inflight)
        t.start()
        started.wait(timeout=10)
        time.sleep(0.3)  # let the request reach the executor
        srv.stop(drain=True)
        t.join(timeout=30)
        assert not errors
        assert result and result[0]["service_cost"] > 0

        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1)

    def test_draining_server_rejects_new_work(self, net):
        """A request arriving mid-drain gets `shutting_down`, not a hang."""
        with ServerThread(_config()) as srv:
            with ServeClient(*srv.address) as c:
                c.health()
                # flip the drain flag directly (the signal handler's effect)
                srv.server._draining = True
                with pytest.raises(ServeError) as exc:
                    c.plan(net, 300.0)
                assert exc.value.code == SHUTTING_DOWN
                srv.server._draining = False  # restore for a clean stop


class TestClientRetry:
    """The client-side transient-failure retry budget (fleet satellite).

    ``retries`` makes :class:`ServeClient` absorb exactly two kinds of
    weather — a dropped connection (server restart, fleet fail-over
    window) and a structured ``overloaded`` — with jittered exponential
    backoff, surfacing the attempts on ``n_retries``. Real answers
    (``bad_request`` etc.) must never be retried.
    """

    def test_reconnects_across_a_server_restart(self, net):
        first = ServerThread(_config())
        host, port = first.start()
        c = ServeClient(host, port, retries=3, retry_backoff=0.05, seed=1)
        try:
            assert c.health()["status"] == "ok"
            first.stop(drain=False)
            second = ServerThread(_config(port=port))
            second.start()
            try:
                # The pooled connection is dead: the retry path reconnects
                # to the same address and the request succeeds.
                result = c.plan(net, 300.0)
                assert result["service_cost"] > 0
                assert c.n_retries >= 1
            finally:
                second.stop()
        finally:
            c.close()

    def test_zero_retries_fails_fast(self):
        srv = ServerThread(_config())
        host, port = srv.start()
        with ServeClient(host, port) as c:
            c.health()
            srv.stop(drain=False)
            with pytest.raises(ServeError):
                c.health()
            assert c.n_retries == 0

    def test_retries_overloaded_until_capacity_frees(self, net, other_net):
        with ServerThread(_config(workers=1, queue_limit=1)) as srv:
            host, port = srv.address
            with ServeClient(host, port) as hog, \
                    ServeClient(host, port, retries=10, retry_backoff=0.1,
                                retry_cap=0.4, seed=2) as c:
                slow = threading.Thread(
                    target=hog.request, kwargs=dict(
                        rtype="plan", network=net, horizon=300.0, delay=1.0))
                slow.start()
                time.sleep(0.2)  # the hog occupies the single slot
                result = c.plan(other_net, 300.0)
                slow.join(timeout=30)
                assert result["service_cost"] > 0
                assert c.n_retries >= 1

    def test_real_errors_are_not_retried(self, net):
        with ServerThread(_config()) as srv:
            with ServeClient(*srv.address, retries=5) as c:
                with pytest.raises(ServeError) as exc:
                    c.request("plan", network=net)  # no horizon
                assert exc.value.code == BAD_REQUEST
                assert c.n_retries == 0


class TestLoadGeneratorModes:
    def test_retries_surface_in_the_report(self, net, other_net):
        from repro.serve import LoadGenerator

        with ServerThread(_config(workers=1, queue_limit=1)) as srv:
            host, port = srv.address
            gen = LoadGenerator(host, port, concurrency=4, retries=20)
            nets = [network_to_dict(build_paper_network(n=10, q=2, seed=s))
                    for s in range(40, 44)]
            report = gen.run([("plan", {"network": nets[i % 4],
                                        "horizon": 200.0, "delay": 0.1})
                              for i in range(8)])
            assert report.n_requests == 8
            assert report.n_failed == 0
            # 4 threads against a single admission slot: some attempts
            # were rejected `overloaded` and retried into success.
            assert report.n_retries >= 1
            assert report.to_dict()["n_retries"] == report.n_retries
