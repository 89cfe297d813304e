"""The ``watch`` subscription over real sockets: serve node and fleet.

The acceptance contracts of the live-observability PR:

* a ``watch`` request upgrades the connection to a server-push stream of
  sequence-numbered NDJSON delta frames; a malformed interval is a
  ``bad_request``, and an upgraded connection accepts nothing further;
* watching never blocks graceful drain (subscriptions are idle
  observation, not in-flight work);
* the router's aggregate stream applies the per-kind merge rules, and the
  one-shot ``stats`` fan-out applies the *same* rules (satellite 3's
  differential: gauges per-shard + max, never summed; quantiles from
  merged sketches, never averaged);
* a subscription survives a shard kill plus supervisor restart: the
  stream marks the shard down, resumes deltas once it rejoins, and fleet
  counter totals stay monotone throughout (satellite 4).
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.fleet import Fleet, FleetConfig
from repro.fleet.router import routing_key
from repro.io.network_json import network_to_dict
from repro.network.builder import build_paper_network
from repro.obs import Instrumentation
from repro.serve import LoadGenerator, ServeClient, ServeConfig, ServerThread
from repro.serve.protocol import BAD_REQUEST
from repro.serve.watch import WatchClient, WatchCollector


@pytest.fixture(scope="module")
def net():
    return network_to_dict(build_paper_network(n=16, q=2, seed=31))


def _serve_config(**overrides):
    defaults = dict(executor="thread", workers=2, queue_limit=16,
                    default_deadline=60.0, drain_timeout=5.0)
    defaults.update(overrides)
    return ServeConfig(**defaults)


def _fleet_config(**overrides):
    defaults = dict(shards=2, shard_mode="thread", workers=2,
                    executor="thread", queue_limit=64, retries=2,
                    retry_backoff=0.02, retry_cap=0.2,
                    supervisor_poll=30.0, seed=0)
    defaults.update(overrides)
    return FleetConfig(**defaults)


def _wait(predicate, timeout=20.0, step=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(step)
    return predicate()


def _observer_counters(s1, s2):
    """Counter names bumped by the act of taking a ``stats`` snapshot.

    Two back-to-back fan-outs with no other traffic: any counter that
    moved between them is request accounting for the observation itself
    and can never satisfy a stream/snapshot identity check.
    """
    changed = {name for name, value in s2.items() if value != s1.get(name, 0.0)}
    changed.update(name for name in s1 if name not in s2)
    return changed


def _counter_mismatches(watch_totals, stats_counters, exclude):
    """Names where the watch accumulation and the stats fan-out disagree."""
    bad = []
    for name in sorted(set(watch_totals) | set(stats_counters)):
        if name in exclude or ".watch." in name:
            continue
        w = watch_totals.get(name, 0.0)
        s = stats_counters.get(name, 0.0)
        if abs(w - s) > 1e-6:
            bad.append(f"{name}: watch={w} stats={s}")
    return bad


class TestServeWatch:
    def test_subscription_streams_deltas(self, net):
        with ServerThread(_serve_config()) as srv:
            watch = WatchClient(*srv.address, interval=0.1)
            assert watch.info["role"] == "serve"
            collector = WatchCollector(watch)
            with ServeClient(*srv.address) as c:
                c.plan(net, 200.0)
                c.health()
            assert _wait(lambda: sum(
                f.counters.get("serve.requests", 0)
                for f in collector.snapshot()) >= 3, timeout=10.0)
            frames = collector.stop()
        assert all(f.kind == "delta" for f in frames)
        assert watch.n_dropped == 0
        seqs = [f.seq for f in frames]
        assert seqs == sorted(seqs)
        # Deltas accumulate to the exact totals: one plan, one health, and
        # the watch request that opened this very subscription.
        def total(name):
            return sum(f.counters.get(name, 0) for f in frames)
        assert total("serve.requests.plan") == 1.0
        assert total("serve.requests.health") == 1.0
        assert total("serve.requests") == 3.0

    def test_bad_interval_is_bad_request_not_an_upgrade(self):
        with ServerThread(_serve_config()) as srv:
            with socket.create_connection(srv.address, timeout=10) as sock:
                f = sock.makefile("rwb")
                f.write(b'{"type": "watch", "id": 1, "interval": "soon"}\n')
                f.flush()
                resp = json.loads(f.readline())
                assert resp["ok"] is False
                assert resp["error"]["code"] == BAD_REQUEST
                # The connection was NOT upgraded: it still answers requests.
                f.write(b'{"type": "health", "id": 2}\n')
                f.flush()
                assert json.loads(f.readline())["ok"] is True

    def test_upgraded_connection_ignores_further_requests(self):
        with ServerThread(_serve_config()) as srv:
            with socket.create_connection(srv.address, timeout=10) as sock:
                f = sock.makefile("rwb")
                f.write(b'{"type": "watch", "id": 1, "interval": 0.05}\n')
                f.flush()
                ack = json.loads(f.readline())
                assert ack["ok"] is True
                assert ack["result"]["stream"] == "watch"
                # Anything else on the wire now just ends the subscription
                # (the push loop treats inbound bytes as a close signal);
                # it must never produce a response line.
                f.write(b'{"type": "health", "id": 2}\n')
                f.flush()
                for _ in range(5):
                    line = f.readline()
                    if not line:
                        break
                    assert json.loads(line).get("stream") == "watch"

    def test_subscription_does_not_block_drain(self):
        srv = ServerThread(_serve_config(drain_timeout=2.0))
        srv.__enter__()
        watch = WatchClient(*srv.address, interval=0.5)
        collector = WatchCollector(watch)
        t0 = time.monotonic()
        srv.__exit__(None, None, None)  # graceful drain with a live watcher
        assert time.monotonic() - t0 < 10.0
        collector.stop()

    def test_watch_counters_track_subscriptions(self):
        obs = Instrumentation()
        with ServerThread(_serve_config(), obs=obs) as srv:
            with WatchClient(*srv.address, interval=0.1) as watch:
                collector = WatchCollector(watch)
                assert _wait(lambda: collector.snapshot(), timeout=5.0)
                collector.stop()
            assert _wait(
                lambda: obs.counters.get("serve.watch.closed", 0) >= 1,
                timeout=5.0)
        assert obs.counters["serve.watch.subscribed"] == 1


class TestFleetStatsMergeRules:
    """Satellite 3: the stats fan-out uses the per-kind merge rules."""

    def test_gauges_per_shard_plus_max_never_summed(self, net):
        other = network_to_dict(build_paper_network(n=16, q=2, seed=32))
        with Fleet(_fleet_config()) as fleet:
            with ServeClient(*fleet.router.address) as c:
                c.plan(net, 200.0)
                c.plan(other, 200.0)
                stats = c.stats()
        gauges = stats["gauges"]
        assert gauges, "fan-out lost the gauge tables"
        for name, entry in gauges.items():
            per_shard = entry["per_shard"]
            assert per_shard, name
            # The differential: aggregate <= max over shards (summing,
            # the old bug, would exceed it whenever 2+ shards report).
            assert entry["max"] == max(per_shard.values()), name
            assert entry["max"] <= sum(abs(v) for v in per_shard.values()) \
                or len(per_shard) == 1

    def test_timers_merged_exactly_and_quantiles_from_sketches(self, net):
        with Fleet(_fleet_config()) as fleet:
            with ServeClient(*fleet.router.address) as c:
                c.plan(net, 200.0)
                stats = c.stats()
        timers = stats["timers"]
        assert "serve.request" in timers
        entry = timers["serve.request"]
        assert entry["count"] >= 1
        # mean recomputed from merged count/total, never averaged.
        assert entry["mean"] == pytest.approx(
            entry["total"] / entry["count"])
        q = stats["quantiles"]["serve.request"]
        assert q["count"] == entry["count"]
        assert q["p50"] <= q["p99"]

    def test_counters_still_summed_across_shards(self, net):
        other = network_to_dict(build_paper_network(n=16, q=2, seed=33))
        with Fleet(_fleet_config(shards=2)) as fleet:
            with ServeClient(*fleet.router.address) as c:
                c.plan(net, 200.0)
                c.plan(other, 200.0)
                stats = c.stats()
        # Wherever the two plans landed, the fleet-wide sum sees both; the
        # stats fan-out itself hits every shard, so its own accounting
        # sums to the shard count.
        assert stats["counters"]["serve.requests.plan"] == 2
        assert stats["counters"]["serve.requests.stats"] == 2
        assert len(stats["shards"]) == 2

    def test_aggregate_stream_equals_stats_fanout_at_drain(
            self, mixed_serve_load):
        """The stream/snapshot identity under concurrent load: at drain, the
        watch totals equal the one-shot fan-out for the *whole* counter
        table, bar the counters that observing itself bumps."""
        interval = 0.1
        with Fleet(_fleet_config()) as fleet:
            host, port = fleet.router.address
            watch = WatchClient(host, port, interval=interval)
            collector = WatchCollector(watch)
            report = LoadGenerator(host, port, concurrency=8).run(
                mixed_serve_load)
            with ServeClient(host, port) as probe:
                s1 = dict(probe.stats()["counters"])
                s2 = dict(probe.stats()["counters"])
            observer = _observer_counters(s1, s2)

            def totals():
                aggregates = [f for f in collector.snapshot()
                              if f.kind == "aggregate"]
                return aggregates[-1].counters if aggregates else {}

            # Wait for the stream to ingest the load and the two
            # snapshots' own accounting; a lost delta never converges.
            _wait(lambda: not _counter_mismatches(totals(), s2, observer),
                  timeout=10.0)
            frames = collector.stop()

        assert report.n_ok == report.n_requests, report.to_dict()
        aggregates = [f for f in frames if f.kind == "aggregate"]
        assert len(aggregates) >= 2
        assert watch.n_dropped == 0
        last = aggregates[-1]
        assert last.dropped == 0
        assert last.shards == {"shard-0": "up", "shard-1": "up"}
        # Observer discovery must not swallow the traffic counters.
        traffic = {"serve.requests.plan", "serve.requests.health",
                   "fleet.routed", "plan.calls"}
        assert traffic <= set(s2) - observer
        assert _counter_mismatches(last.counters, s2, observer) == []


class TestWatchSurvivesShardRestart:
    """Satellite 4: kill + supervisor restart under a live subscription."""

    def test_stream_marks_down_resumes_and_stays_monotone(self, net):
        cfg = _fleet_config(supervisor_poll=0.1, max_restarts=3)
        with Fleet(cfg) as fleet:
            host, port = fleet.router.address
            victim = fleet.router._ring.primary(routing_key({"network": net}))
            watch = WatchClient(host, port, interval=0.1)
            collector = WatchCollector(watch)
            with ServeClient(host, port, retries=3) as c:
                c.plan(net, 200.0)
                fleet.kill_shard(victim)
                # The stream reports the death ...
                assert _wait(lambda: any(
                    f.shards.get(victim) == "down"
                    for f in collector.snapshot()), timeout=20.0), \
                    "stream never marked the killed shard down"
                # ... the supervisor restarts it ...
                assert _wait(lambda: len(fleet.router.live_shards) == 2,
                             timeout=20.0)
                assert _wait(lambda: any(
                    f.shards.get(victim) == "up"
                    for f in reversed(collector.snapshot())), timeout=20.0), \
                    "stream never saw the shard rejoin"
                # ... and deltas resume: traffic to the reborn shard shows
                # up in later frames.
                before = sum(f.counters.get("serve.requests.plan", 0)
                             for f in collector.snapshot()
                             if f.kind == "aggregate")
                c.plan(net, 200.0)
                assert _wait(lambda: [
                    f for f in collector.snapshot() if f.kind == "aggregate"
                ][-1].counters.get("serve.requests.plan", 0) > 0,
                    timeout=10.0)
            frames = collector.stop()

        aggregates = [f for f in frames if f.kind == "aggregate"]
        assert len(aggregates) >= 3
        # Membership events were streamed, not just flags.
        events = [e.get("event") for f in aggregates for e in f.events]
        assert "shard_down" in events
        assert "shard_up" in events
        # Counter monotonicity: totals never decrease across the restart.
        seen: dict[str, float] = {}
        for frame in aggregates:
            for name, value in frame.counters.items():
                assert value >= seen.get(name, 0.0) - 1e-9, \
                    f"{name} regressed across the shard restart"
                seen[name] = value
        assert watch.n_dropped == 0
