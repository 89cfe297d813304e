"""The fleet differential: a sharded fleet must be invisible to clients.

``repro check fleet`` sends one fixed request sequence twice — once to a
single-node :mod:`repro.serve` server, once through a
:class:`~repro.fleet.service.Fleet` router — and requires the response
envelopes to be payload-identical, *including* after one shard is killed
abruptly halfway through the fleet run. The kill is injected while the
supervisor is deliberately too slow to notice, so the router must
discover the death through failed requests and fail over on the ring;
clients may never see the difference. Volatile decorations that honestly
differ between the two paths (``cached``/``coalesced`` — which tier
answered, not what the answer is) are stripped before comparison;
everything else, byte for byte.

The sequence revisits the killed shard's geometry after the kill, so at
least one fail-over is *guaranteed* to be exercised — and asserted: a
differential that silently stopped covering the fail-over path would rot.

A last leg stops the fleet with one slow ``plan`` still in flight at the
router: the drain must deliver it, and its envelope must equal the single
node's answer to the same request.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Any

from repro.obs.instrument import Instrumentation, ensure
from repro.obs.log import get_logger
from repro.serve.protocol import encode

__all__ = ["run_fleet_check", "canonical_response"]

log = get_logger(__name__)

#: Seconds the drain leg's plan sleeps on its shard, so it is still in
#: flight at the router when the fleet is told to stop.
_DRAIN_DELAY = 0.5

#: Result keys that legitimately differ between serving paths: they say
#: which cache tier/flight answered, not what the answer is.
_VOLATILE_RESULT_KEYS = ("cached", "coalesced")


def canonical_response(response: dict[str, Any]) -> dict[str, Any]:
    """A response envelope with path-dependent decorations removed."""
    out = dict(response)
    result = out.get("result")
    if isinstance(result, dict):
        out["result"] = {k: v for k, v in result.items()
                         if k not in _VOLATILE_RESULT_KEYS}
    return out


def _exchange(host: str, port: int,
              messages: list[dict[str, Any]],
              timeout: float = 120.0) -> list[dict[str, Any]]:
    """Send ``messages`` sequentially over one connection; collect replies.

    Raw frames on purpose: the differential compares full envelopes
    (including error responses), which :class:`~repro.serve.client.ServeClient`
    would collapse into exceptions.
    """
    with socket.create_connection((host, port), timeout=timeout) as sock:
        fh = sock.makefile("rwb")
        responses = []
        for message in messages:
            fh.write(encode(message))
            fh.flush()
            line = fh.readline()
            if not line:
                raise ConnectionError("server closed the connection mid-exchange")
            responses.append(json.loads(line))
        return responses


def _stop_in_flight(fleet: Any, message: dict[str, Any]) -> dict[str, Any] | None:
    """Stop ``fleet`` once its router forwards ``message``; return the
    response the drain delivered (``None``: the connection closed first)."""
    counters = fleet.router.obs.counters
    routed = counters.get("fleet.routed", 0)

    def stop_when_forwarded() -> None:
        deadline = time.monotonic() + 60.0
        while counters.get("fleet.routed", 0) <= routed and time.monotonic() < deadline:
            time.sleep(0.01)
        fleet.stop()

    stopper = threading.Thread(target=stop_when_forwarded, daemon=True)
    stopper.start()
    try:
        return _exchange(*fleet.router.address, [message])[0]
    except ConnectionError:
        return None
    finally:
        stopper.join(timeout=120.0)


def _build_messages(seed: int) -> list[dict[str, Any]]:
    """The fixed request sequence (phase 1 = first half, phase 2 = rest).

    Index 0's geometry is the kill victim's; it is planned again (and
    simulated) in phase 2, which forces post-kill fail-over traffic onto
    the dead shard's ring successor.
    """
    from repro.io.network_json import network_to_dict
    from repro.network.builder import build_paper_network

    nets = [network_to_dict(build_paper_network(
        n=16 + 2 * i, q=2 + (i % 2), seed=seed * 100 + i)) for i in range(4)]
    plans = [
        {"type": "plan", "network": nets[i % 4],
         "horizon": 150.0 + 25.0 * i, "refine": bool(i % 2)}
        for i in range(6)  # i in {4, 5} revisits nets[0] / nets[1]
    ]
    # One deliberately malformed request: the router routes it by its
    # canonical-JSON hash and the owning shard must produce the very same
    # bad_request a single node would.
    plans.append({"type": "plan", "network": {"sensors": "nonsense"},
                  "horizon": 100.0})
    return plans


def run_fleet_check(*, seed: int = 0, shards: int = 2,
                    obs: Instrumentation | None = None) -> list[str]:
    """Run the differential; returns human-readable problems (empty = pass)."""
    from repro.fleet.router import FleetConfig, routing_key
    from repro.fleet.service import Fleet
    from repro.serve.server import ServeConfig, ServerThread

    o = ensure(obs)
    problems: list[str] = []
    with o.span("check.fleet"):
        plan_messages = _build_messages(seed)

        # ---------------------------------------------------- single node
        with ServerThread(ServeConfig(
                executor="thread", workers=2, queue_limit=64,
                default_deadline=120.0)) as single:
            host, port = single.address
            for i, m in enumerate(plan_messages):
                m["id"] = i
            single_plan = _exchange(host, port, plan_messages)
            sim_messages = []
            for i, response in enumerate(single_plan):
                if not response.get("ok"):
                    continue
                sim_messages.append({
                    "type": "simulate", "id": 1000 + i,
                    "network": plan_messages[i]["network"],
                    "plan": response["result"]["plan"]})
            single_sim = _exchange(host, port, sim_messages)
            drain_message = {"type": "plan", "id": 2000,
                             "network": plan_messages[1]["network"],
                             "horizon": 975.0}
            single_drain = _exchange(host, port, [drain_message])[0]
        messages = plan_messages + sim_messages
        single_responses = single_plan + single_sim

        # ----------------------------------------------------------- fleet
        # supervisor_poll is longer than the whole run: the router must
        # discover the kill through failing requests, not be told.
        config = FleetConfig(
            shards=shards, shard_mode="thread", workers=2, executor="thread",
            queue_limit=64, default_deadline=120.0, supervisor_poll=30.0,
            retries=max(2, shards - 1), seed=seed)
        with Fleet(config) as fleet:
            host, port = fleet.router.address
            victim = fleet.router._ring.primary(
                routing_key({k: v for k, v in messages[0].items()
                             if k not in ("type", "id", "deadline")}))
            half = len(messages) // 2
            fleet_responses = _exchange(host, port, messages[:half])
            fleet.kill_shard(victim)
            fleet_responses += _exchange(host, port, messages[half:])
            fleet_drain = _stop_in_flight(
                fleet, dict(drain_message, delay=_DRAIN_DELAY))
            counters = dict(fleet.router.obs.counters)

        # ------------------------------------------------------- comparison
        o.incr("check.fleet.requests", len(messages))
        for message, mine, theirs in zip(messages, single_responses,
                                         fleet_responses):
            a, b = canonical_response(mine), canonical_response(theirs)
            if a != b:
                o.incr("check.fleet.mismatches")
                problems.append(
                    f"fleet response diverged for {message['type']} "
                    f"id={message['id']}: single-node "
                    f"{json.dumps(a, sort_keys=True)[:400]} != fleet "
                    f"{json.dumps(b, sort_keys=True)[:400]}")
        o.incr("check.fleet.drain.requests")
        if fleet_drain is None or (canonical_response(fleet_drain)
                                   != canonical_response(single_drain)):
            o.incr("check.fleet.mismatches")
            problems.append(
                f"router drain did not deliver the in-flight plan intact: "
                f"single-node {json.dumps(single_drain, sort_keys=True)[:400]}"
                f" != fleet {json.dumps(fleet_drain, sort_keys=True)[:400]}")
        else:
            o.incr("check.fleet.drain.delivered")
        if counters.get("fleet.failover", 0) < 1:
            problems.append(
                f"differential did not exercise fail-over: shard {victim} "
                f"was killed but fleet.failover stayed 0 (counters: "
                f"{ {k: v for k, v in counters.items() if k.startswith('fleet')} })")
        if problems:
            o.incr("check.fleet.failed")
        log.info("fleet check: %d request(s) + 1 drained, %d shard(s), "
                 "victim %s, %d fail-over(s), %d problem(s)", len(messages),
                 shards, victim, int(counters.get("fleet.failover", 0)),
                 len(problems))
    return problems
