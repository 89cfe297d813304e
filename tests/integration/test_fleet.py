"""Integration tests for the sharded planning fleet over real sockets.

Each test boots a real :class:`~repro.fleet.service.Fleet` (thread-mode
shards: fast to start, abrupt to kill) and talks to the router with the
unchanged :class:`~repro.serve.client.ServeClient` — the fleet's whole
contract is that clients cannot tell it from a single node.

The acceptance contracts of the fleet PR live here:

* **sticky routing** — repeats of one geometry land on the same shard, so
  the per-shard response cache and single-flight coalescing keep working
  across the fleet exactly as on a single node;
* **fail-over invisibility** — killing the shard that owns a key is not a
  client-visible failure: the router replays on the ring successor;
* **bounded fail-over** — with every shard dead the client gets a
  structured ``shard_unavailable``, never a hang or a raw reset;
* **aggregation** — ``health``/``stats`` fan out and come back summed,
  with per-shard breakdowns;
* **supervision** — a killed shard is restarted and rejoins the ring.

The payload-level differential (fleet answers byte-identical to a single
node, including through a mid-run kill) is ``repro check fleet``
(:mod:`repro.check.fleetcheck`), exercised in CI; here we keep to the
behavioural contracts so the suite stays fast.
"""

import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.check.fleetcheck import canonical_response
from repro.errors import ServeError
from repro.fleet import Fleet, FleetConfig
from repro.fleet.router import routing_key
from repro.io.network_json import network_to_dict
from repro.network.builder import build_paper_network
from repro.obs import Instrumentation
from repro.serve import LoadGenerator, ServeClient, ServeConfig, ServerThread, frontend
from repro.serve.protocol import BAD_REQUEST, SHARD_UNAVAILABLE, SHUTTING_DOWN, encode


@pytest.fixture(scope="module")
def net():
    return network_to_dict(build_paper_network(n=16, q=2, seed=21))


@pytest.fixture(scope="module")
def other_net():
    return network_to_dict(build_paper_network(n=16, q=2, seed=22))


def _config(**overrides):
    defaults = dict(shards=2, shard_mode="thread", workers=2,
                    executor="thread", queue_limit=64, retries=2,
                    retry_backoff=0.02, retry_cap=0.2,
                    supervisor_poll=30.0,  # router discovers deaths itself
                    seed=0)
    defaults.update(overrides)
    return FleetConfig(**defaults)


def _wait(predicate, timeout=20.0, step=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(step)
    return predicate()


def _send(sock, message):
    """Send one request frame on a raw socket."""
    sock.sendall(encode(message))


def _accepts(address):
    """Whether a listener still accepts connections at ``address``."""
    try:
        socket.create_connection(address, timeout=1.0).close()
    except OSError:
        return False
    return True


def _owner(fleet, network):
    """The shard id that owns ``network``'s geometry on the router's ring."""
    return fleet.router._ring.primary(routing_key({"network": network}))


class TestRoutingAndAggregation:
    def test_plan_simulate_roundtrip_and_sticky_routing(self, net):
        with Fleet(_config()) as fleet:
            with ServeClient(*fleet.router.address) as c:
                first = c.plan(net, 300.0)
                assert first["n_schedulings"] == len(first["plan"]["schedulings"])
                assert first["service_cost"] > 0

                # Same geometry → same shard → its response cache answers.
                again = c.plan(net, 300.0)
                assert again.get("cached") is True
                assert again["plan"] == first["plan"]

                metrics = c.simulate(net, first["plan"])
                assert metrics["perpetual"] is True
                assert metrics["n_dispatches"] == first["n_schedulings"]

                stats = c.stats()
                counters = stats["counters"]
                assert counters["serve.plan_cache.hit"] == 1
                assert counters["plan.calls"] == 1  # planner ran exactly once
                assert counters["fleet.requests.plan"] == 2
                assert counters["fleet.routed"] >= 3

    def test_legacy_kernel_backend_field_is_ignored(self, net):
        with Fleet(_config()) as fleet:
            with ServeClient(*fleet.router.address) as c:
                base = c.plan(net, 300.0)
                for name in ("fast", "warp-drive"):
                    legacy = c.request("plan", network=net, horizon=300.0,
                                       kernel_backend=name)
                    assert legacy["plan"] == base["plan"]
                    assert legacy.get("cached") is True

    def test_health_aggregates_all_shards(self, net):
        with Fleet(_config()) as fleet:
            with ServeClient(*fleet.router.address) as c:
                health = c.health()
                assert health["status"] == "ok"
                assert health["role"] == "fleet-router"
                assert health["shards_total"] == 2
                assert health["shards_live"] == 2
                assert set(health["shards"]) == {"shard-0", "shard-1"}
                assert all(h["status"] == "ok"
                           for h in health["shards"].values())

    def test_stats_aggregates_counters_and_per_shard(self, net, other_net):
        with Fleet(_config()) as fleet:
            with ServeClient(*fleet.router.address) as c:
                c.plan(net, 300.0)
                c.plan(other_net, 300.0)
                stats = c.stats()
                assert stats["role"] == "fleet-router"
                assert stats["counters"]["serve.requests.plan"] == 2
                assert stats["shards_live"] == ["shard-0", "shard-1"]
                assert set(stats["shards"]) == {"shard-0", "shard-1"}
                for per_shard in stats["shards"].values():
                    assert per_shard["pending"] == 0
                    assert per_shard["inflight"] == 0

    def test_duplicate_id_rejected_at_the_edge(self, net):
        with Fleet(_config()) as fleet:
            host, port = fleet.router.address
            with socket.create_connection((host, port), timeout=10) as raw:
                fh = raw.makefile("rb")
                for _ in range(2):
                    raw.sendall(b'{"type": "health", "id": 7}\n')
                first = json.loads(fh.readline())
                second = json.loads(fh.readline())
            assert first["ok"] is True
            assert second["ok"] is False
            assert second["error"]["code"] == BAD_REQUEST
            assert "duplicate" in second["error"]["message"]
            # Counted like a node: one duplicate, one failed bad_request.
            counters = fleet.obs.counters
            assert counters["fleet.duplicate_id"] == 1
            assert counters["fleet.failed"] == 1
            assert counters["fleet.failed.bad_request"] == 1

    def test_bad_requests_get_structured_errors(self, net):
        with Fleet(_config()) as fleet:
            with ServeClient(*fleet.router.address) as c:
                # Malformed network still routes (fallback key) and comes
                # back with the owning shard's validation error.
                with pytest.raises(ServeError) as exc:
                    c.request("plan", network={"bogus": True}, horizon=10.0)
                assert exc.value.code == BAD_REQUEST
                with pytest.raises(ServeError) as exc:
                    c.request("explode")  # rejected by the router itself
                assert exc.value.code == BAD_REQUEST


class TestFailover:
    def test_killing_the_owner_is_invisible_to_the_client(self, net):
        with Fleet(_config()) as fleet:
            victim = _owner(fleet, net)
            with ServeClient(*fleet.router.address) as c:
                first = c.plan(net, 300.0)
                fleet.kill_shard(victim)
                # Same connection, same request: the router hits the dead
                # primary, fails over to the ring successor, and the client
                # sees a normal (payload-identical) response.
                again = c.plan(net, 300.0)
                assert again["plan"] == first["plan"]
                assert again["service_cost"] == pytest.approx(
                    first["service_cost"])
            assert fleet.obs.counters.get("fleet.failover", 0) >= 1
            assert fleet.obs.counters.get("fleet.failover.served", 0) >= 1

    def test_all_shards_dead_yields_shard_unavailable(self, net):
        with Fleet(_config(shards=1, retries=1)) as fleet:
            with ServeClient(*fleet.router.address) as c:
                c.plan(net, 300.0)
                fleet.kill_shard("shard-0")
                with pytest.raises(ServeError) as exc:
                    c.plan(net, 300.0)
                assert exc.value.code == SHARD_UNAVAILABLE
            counters = fleet.obs.counters
            assert counters.get("fleet.shard_unavailable", 0) >= 1
            assert (counters.get("fleet.failed.shard_unavailable", 0)
                    == counters["fleet.shard_unavailable"])
            assert counters["fleet.failed"] >= counters["fleet.shard_unavailable"]

    def test_supervisor_restarts_and_shard_rejoins(self, mixed_serve_load):
        """Concurrent load across a mid-run kill of a ring owner: every
        request is answered ``ok``, the router fails over at least once,
        and the supervisor restarts the victim, which rejoins the ring.

        The kill lands while the victim has a request in flight. Killed
        in an idle gap instead, the 0.1 s supervisor poll can take the
        shard out of rotation before any request meets it, and then no
        fail-over happens at all.
        """
        requests = mixed_serve_load
        half = len(requests) // 2
        with Fleet(_config(supervisor_poll=0.1, max_restarts=3)) as fleet:
            victim = _owner(fleet, requests[0][1]["network"])
            gen = LoadGenerator(*fleet.router.address, concurrency=8)
            first = gen.run(requests[:half])
            with ThreadPoolExecutor(1) as pool:
                pending = pool.submit(gen.run, requests[half:])
                assert _wait(lambda: fleet.router._inflight.get(victim, 0)
                             > 0), "the second half never reached the victim"
                fleet.kill_shard(victim)
                second = pending.result(timeout=120)
            assert _wait(lambda: fleet.router.live_shards
                         == {"shard-0", "shard-1"}
                         and fleet.obs.counters.get("fleet.rejoined", 0) >= 1)
            counters = dict(fleet.obs.counters)
            # The restarted shard serves its keys again (cold cache, same
            # deterministic answer).
            with ServeClient(*fleet.router.address) as c:
                assert c.plan(requests[0][1]["network"],
                              300.0)["n_schedulings"] >= 0
        for report in (first, second):
            assert report.n_ok == report.n_requests, report.to_dict()
        assert first.n_requests + second.n_requests == len(requests)
        assert counters.get("fleet.failover", 0) >= 1
        assert counters.get("fleet.failover.served", 0) >= 1
        assert counters.get("fleet.shard.down", 0) >= 1
        assert counters.get("fleet.shard.restarts", 0) >= 1
        assert counters.get("fleet.rejoined", 0) >= 1


class TestRouterDrain:
    """The router drains on stop, exactly like a single node."""

    def test_stop_finishes_in_flight_forward_and_sheds_new_work(self, net):
        message = {"type": "plan", "id": 1, "network": net, "horizon": 300.0}
        with ServerThread(ServeConfig(executor="thread", workers=2)) as single:
            with socket.create_connection(single.address, timeout=30) as sock:
                _send(sock, message)
                reference = json.loads(sock.makefile("rb").readline())
        assert reference["ok"] is True

        fleet = Fleet(_config())
        fleet.start()
        stopper = threading.Thread(target=fleet.stop)
        try:
            address = fleet.router.address
            with socket.create_connection(address, timeout=30) as busy, \
                    socket.create_connection(address, timeout=30) as late:
                busy_lines, late_lines = busy.makefile("rb"), late.makefile("rb")
                _send(late, {"type": "health", "id": 0})  # open and idle
                assert json.loads(late_lines.readline())["ok"] is True
                _send(busy, dict(message, delay=1.0))
                assert _wait(lambda: fleet.obs.counters.get("fleet.routed", 0) >= 1)
                stopper.start()
                assert _wait(lambda: not _accepts(address), timeout=5.0)
                _send(late, dict(message, id=2))
                shed = late_lines.readline()
                drained = busy_lines.readline()
            stopper.join(timeout=60)
        finally:
            fleet.stop()
        assert drained, "the router dropped the in-flight forward on stop"
        assert canonical_response(json.loads(drained)) == canonical_response(reference)
        assert shed, "the router closed a connection instead of answering"
        shed = json.loads(shed)
        assert shed["ok"] is False
        assert shed["error"]["code"] == SHUTTING_DOWN
        assert fleet.obs.counters["fleet.failed.shutting_down"] == 1


class TestRouterTraceBound:
    def test_router_trims_its_trace_and_serve_keeps_its_config(self, monkeypatch):
        monkeypatch.setattr(frontend, "MAX_TRACE_EVENTS", 8)
        obs = Instrumentation()
        with Fleet(_config(), obs=obs) as fleet:
            with ServeClient(*fleet.router.address) as c:
                for _ in range(20):
                    c.health()
            assert len(fleet.router.obs.events) <= 8
            assert fleet.router.obs.counters["trace.truncated"] > 0

        # A node's own max_trace_events still governs its trace, not the
        # front end's default.
        with ServerThread(ServeConfig(executor="thread", workers=1,
                                      max_trace_events=12)) as srv:
            with ServeClient(*srv.address) as c:
                for _ in range(20):
                    c.health()
            assert 8 < len(srv.server.obs.events) <= 12
            assert srv.server.obs.counters["trace.truncated"] > 0
