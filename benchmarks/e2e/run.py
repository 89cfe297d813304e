"""End-to-end planning benchmark for ``repro serve`` and ``repro fleet``.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --seed 0 [--workload NAME ...] \\
        [--seconds S] [--trace 0|1] [--out PATH] [--smoke]

For each workload it boots the real CLI as subprocesses, drives it with
two closed-loop clients (one thread and one connection each) over the
wire protocol for ``--seconds``, and checks the answers against the
library. It prints every metric as ``workload metric value unit`` and, as
the last line, one JSON object: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``. ``--trace 1`` adds, after the
timed phase, a traced run of 16 sample requests and their layer-by-layer
replay (see ``replay.py``). See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

CLIENTS = 2
DEFAULT_SECONDS = 20.0
RESIDUAL_FLAG = 0.10

E2E_METRICS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "req/s",
    "server_cpu_ms_per_req": "ms",
    "server_rss_mb": "MB",
    "setup_s": "s",
}

#: Spans the program exports through ``stats``; each is reported as the
#: share of the mean client latency spent inside it.
_SPANS = ("kernel.prim", "msf", "kernel.two_opt", "plan", "plan.block",
          "simulate", "serve.request")


def layer_metrics() -> dict[str, str]:
    """Every per-layer metric name with its unit (what ``--trace 1`` emits)."""
    from replay import REPLAY_LAYERS, REPLAY_VALUES, SWEEP_LAYERS, SWEEP_SIZES

    return {
        **{f"{name}_share": "ratio" for name in REPLAY_LAYERS},
        "fleet.hop_share": "ratio",
        **REPLAY_VALUES,
        "plan.cache.tours_hit_ratio": "ratio",
        "rooted.msf.calls_per_req": "count",
        "sim.events_per_req": "count",
        "serve.plan_cache_hit_share": "ratio",
        "serve.coalesced_share": "ratio",
        **{f"server.span.{name}_share": "ratio" for name in _SPANS},
        "traced.wall_ms": "ms",
        "traced.layers_ms": "ms",
        "traced.residual_share": "ratio",
        "bench.warmup_s": "s",
        "bench.late_clients": "count",
        "bench.absent_layers": "count",
        **{f"sweep.n{n}.{m}_ms": "ms" for n in SWEEP_SIZES for m in SWEEP_LAYERS},
    }


def _load_program() -> None:
    """Put this checkout's ``src`` first on the path; exit 2 when the
    program is not there (an installed copy elsewhere does not count)."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        print(f"e2e: cannot import repro from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"e2e: repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def nearest_rank(samples: list[float], p: float) -> float:
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1] if ordered else 0.0


@dataclass
class Phase:
    """What one closed-loop phase measured."""

    attempted: int = 0
    ok: int = 0
    wall_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    errors: dict[str, int] = field(default_factory=dict)
    kept: dict[int, dict[str, Any]] = field(default_factory=dict)


def closed_loop(clients: list, requests: list, seconds: float,
                keep=lambda i: False) -> Phase:
    """Each client sends its next request when its previous answer is in,
    pulling from one shared cursor, until the stream or the time runs out."""
    from repro.errors import ServeError

    phase = Phase()
    lock = threading.Lock()
    cursor = [0]
    deadline = [0.0]
    t_start = [0.0]

    def release() -> None:
        t_start[0] = time.perf_counter()
        deadline[0] = t_start[0] + seconds

    barrier = threading.Barrier(len(clients), action=release)

    def drive(client) -> None:
        barrier.wait()
        while True:
            with lock:
                i = cursor[0]
                if i >= len(requests) or time.perf_counter() >= deadline[0]:
                    return
                cursor[0] = i + 1
            rtype, params = requests[i]
            t0 = time.perf_counter()
            try:
                result, code = client.request(rtype, **params), None
            except ServeError as exc:
                result, code = None, exc.code
            ms = (time.perf_counter() - t0) * 1e3
            with lock:
                phase.attempted += 1
                if code is None:
                    phase.ok += 1
                    phase.latencies_ms.append(ms)
                    if keep(i):
                        phase.kept[i] = result
                else:
                    phase.errors[code] = phase.errors.get(code, 0) + 1

    with ThreadPoolExecutor(len(clients)) as pool:
        for fut in [pool.submit(drive, c) for c in clients]:
            fut.result()
    phase.wall_s = time.perf_counter() - t_start[0]
    return phase


class Bench:
    """One benchmark invocation: a work directory and the services it owns."""

    def __init__(self, seed: int, seconds: float, trace: bool, smoke: bool) -> None:
        self.seed, self.seconds, self.trace, self.smoke = seed, seconds, trace, smoke
        self.work = HERE / ".work" / str(os.getpid())
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, TMPDIR=str(self.work), PYTHONPATH=str(SRC))
        self.live: list = []
        self._boots = 0
        from repro.io.network_json import network_to_dict
        from repro.network.builder import build_paper_network
        self._probe_doc = network_to_dict(build_paper_network(n=50, q=5, seed=0))

    def close(self) -> None:
        errors = []
        for svc in reversed(self.live):
            try:
                svc.stop()
            except RuntimeError as exc:
                errors.append(str(exc))
        self.live.clear()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
        if errors:
            raise RuntimeError("; ".join(errors))

    # -------------------------------------------------------------- services
    def boot(self, system: str) -> Any:
        from procs import Service, free_port
        from workloads import HORIZON

        self._boots += 1
        log = self.work / f"boot{self._boots}.log"
        if system == "fleet":
            port = free_port()
            svc = Service(["fleet", "--port", str(port)], env=self.env,
                          log_path=log, port=port)
        else:
            port_file = self.work / f"boot{self._boots}.port"
            extra = (["--workers", "2"] if system == "serve"
                     else ["--executor", "thread", "--workers", "1"])
            svc = Service(["serve", "--port", "0", "--port-file", str(port_file), *extra],
                          env=self.env, log_path=log, port_file=port_file)

        def ready(client) -> None:
            from repro.errors import ServeError
            if client.health().get("status") != "ok":
                raise ServeError("not ready")
            client.request("plan", network=self._probe_doc, horizon=HORIZON,
                           refine=False)

        self.live.append(svc)
        svc.start(ready)
        return svc

    def stop(self, svc: Any) -> None:
        self.live.remove(svc)
        svc.stop()

    # -------------------------------------------------------------- workload
    def run(self, name: str) -> dict[str, Any]:
        from procs import group_cpu_seconds, group_hwm_mb
        from repro.serve.client import ServeClient
        from workloads import WORKLOADS, build_inputs, check_all

        w = WORKLOADS[name]
        phases: dict[str, float] = {}
        t = time.perf_counter()
        inputs = build_inputs(w, self.seed, self.seconds, self.smoke)
        # The inputs live for the whole run; keep the cyclic collector from
        # rescanning them while clients are being timed.
        gc.freeze()
        phases["inputs"], t = time.perf_counter() - t, time.perf_counter()
        boots = []
        for b in range(1 if self.smoke else 3):
            if boots:
                self.stop(svc)
            svc = self.boot(w.system)
            boots.append(svc.boot_s)
        out: dict[str, Any] = {"system": w.system, "flags": []}
        phases["setup"], t = time.perf_counter() - t, time.perf_counter()
        clients = [ServeClient(*svc.address, timeout=120.0) for _ in range(CLIENTS)]
        try:
            warm = closed_loop(clients, inputs.warmup, float("inf"))
            phases["warmup"], t = time.perf_counter() - t, time.perf_counter()
            if warm.ok != len(inputs.warmup):
                raise RuntimeError(f"{name}: warm-up failed: {warm.errors}")
            stats0 = clients[0].stats()
            cpu0 = group_cpu_seconds(svc.pgid)
            timed = closed_loop(clients, inputs.stream, self.seconds,
                                keep=lambda i: i % 10 == 0 or i in inputs.repeats)
            cpu1 = group_cpu_seconds(svc.pgid)
            stats1 = clients[0].stats()
            rss_mb = group_hwm_mb(svc.pgid)
            phases["timed"], t = time.perf_counter() - t, time.perf_counter()
            if self.trace:
                traced = self._traced(w, inputs, clients[0])
                phases["traced"], t = time.perf_counter() - t, time.perf_counter()
        finally:
            for c in clients:
                c.close()
            self.stop(svc)

        ok = max(timed.ok, 1)
        out.update(attempted=timed.attempted, ok=timed.ok, errors=timed.errors,
                   error_rate=(timed.attempted - timed.ok) / max(timed.attempted, 1),
                   seconds=timed.wall_s, boots_s=boots)
        out["metrics"] = {
            "latency_p50_ms": nearest_rank(timed.latencies_ms, 50),
            "latency_p90_ms": nearest_rank(timed.latencies_ms, 90),
            "throughput_rps": timed.ok / timed.wall_s,
            "server_cpu_ms_per_req": (cpu1 - cpu0) * 1e3 / ok,
            "server_rss_mb": rss_mb,
            "setup_s": statistics.median(boots),
        }
        server = _server_layers(stats0, stats1, timed.ok,
                                sum(timed.latencies_ms) / ok)

        # ---- verification, outside the timed phase
        out["mismatches"] = check_all(
            [(i, inputs.stream[i], result) for i, result in timed.kept.items()])
        repeats_sent = sum(1 for i in inputs.repeats if i < timed.attempted)
        out["mismatches"] += _cache_sanity(name, server, stats0, stats1, repeats_sent)
        out["verified"] = len(timed.kept)
        if timed.attempted == len(inputs.stream):
            out["flags"].append(f"the stream of {timed.attempted} requests ran out "
                                f"after {timed.wall_s:.1f} s")
        inputs.stream = []
        phases["verify"], t = time.perf_counter() - t, time.perf_counter()

        if self.trace:
            out["layers"], out["absent"] = self._layers(*traced, server, phases["warmup"])
            phases["layers"] = time.perf_counter() - t
            residual = out["layers"]["traced.residual_share"]
            if residual > RESIDUAL_FLAG:
                out["flags"].append(f"traced.residual_share {residual:.3f} > "
                                    f"{RESIDUAL_FLAG}")
        out["phases_s"] = phases
        gc.unfreeze()
        return out

    def _traced(self, w, inputs, client):
        """Send each sample request alone through the server (and, for the
        fleet, to a lone ``serve``), then replay it in-process at once, so
        wall and layers see the same machine state."""
        from replay import Replay
        from repro.serve.client import ServeClient

        replay = Replay(fleet=w.system == "fleet", process_executor=w.system == "serve",
                        warm=inputs.warm)
        walls: list[float] = []
        direct: list[float] = []
        lone = self.boot("lone") if w.system == "fleet" else None
        try:
            lone_client = ServeClient(*lone.address, timeout=120.0) if lone else None
            for req in inputs.sample:
                walls.append(_wall_ms(client, req))
                if lone_client is not None:
                    direct.append(_wall_ms(lone_client, req))
                replay.run(req)
            if lone_client is not None:
                lone_client.close()
        finally:
            if lone is not None:
                self.stop(lone)
        return walls, direct, replay

    def _layers(self, walls, direct, replay, server, warmup_s):
        from replay import sweep

        layers = dict.fromkeys(layer_metrics(), 0.0)
        layers.update({f"{k}_share": v for k, v in replay.rec.shares(walls).items()})
        layers.update(replay.rec.medians())
        layers.update(server)
        layers.update({
            "traced.wall_ms": statistics.median(walls),
            "traced.layers_ms": statistics.median(replay.rec.sums),
            "traced.residual_share": statistics.median(
                1.0 - s / wall for s, wall in zip(replay.rec.sums, walls)),
            "bench.warmup_s": warmup_s, "bench.late_clients": 0.0})
        if direct:
            layers["fleet.hop_share"] = statistics.median(
                (a - b) / a for a, b in zip(walls, direct))
        swept, absent = sweep(self.seed, smoke=self.smoke)
        layers.update(swept)
        absent.update(replay.rec.absent)
        layers["bench.absent_layers"] = float(len(absent))
        unknown = set(layers) - set(layer_metrics())
        if unknown:
            raise RuntimeError(f"undeclared layer metrics {sorted(unknown)}")
        return layers, absent


def _wall_ms(client, req) -> float:
    t0 = time.perf_counter()
    client.request(req[0], **req[1])
    return (time.perf_counter() - t0) * 1e3


def _delta(stats0: dict, stats1: dict, kind: str, name: str) -> float:
    def read(stats: dict) -> float:
        v = stats.get(kind, {}).get(name, 0.0)
        return float(v.get("total", 0.0) if isinstance(v, dict) else v)
    return read(stats1) - read(stats0)


def _server_layers(stats0: dict, stats1: dict, ok: int,
                   mean_latency_ms: float) -> dict[str, float]:
    """Per-request layer numbers from the program's own ``stats`` deltas."""
    def per_req(v: float) -> float:
        return v / ok if ok else 0.0

    def count(name: str) -> float:
        return _delta(stats0, stats1, "counters", name)

    hits, misses = count("plan.cache.tours.hit"), count("plan.cache.tours.miss")
    layers = {
        "plan.cache.tours_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "rooted.msf.calls_per_req": per_req(count("msf.calls")),
        "sim.events_per_req": per_req(count("sim.events")),
        "serve.plan_cache_hit_share": per_req(count("serve.plan_cache.hit")),
        "serve.coalesced_share": per_req(count("serve.coalesced")),
    }
    for span in _SPANS:
        layers[f"server.span.{span}_share"] = per_req(
            _delta(stats0, stats1, "timers", span) * 1e3) / mean_latency_ms
    return layers


def _cache_sanity(name: str, server: dict, stats0: dict, stats1: dict,
                  repeats_sent: int) -> list[str]:
    ratio = server["plan.cache.tours_hit_ratio"]
    if name == "plan-cold" and ratio != 0.0:
        return [f"plan.cache.tours_hit_ratio {ratio} != 0 on fresh geometries"]
    if name == "replan-warm" and ratio < 0.95:
        return [f"plan.cache.tours_hit_ratio {ratio:.3f} < 0.95 on warm geometries"]
    if name == "fleet-refine":
        served = (_delta(stats0, stats1, "counters", "serve.plan_cache.hit")
                  + _delta(stats0, stats1, "counters", "serve.coalesced"))
        if served < repeats_sent:
            return [f"{repeats_sent} repeats sent but only {served:g} answered "
                    f"from the response LRU or coalescing"]
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="extend", nargs="+", default=None,
                        metavar="NAME", help="workloads to run (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of each workload's timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 adds the traced run and reports per-layer metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="write every measurement of the run to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one boot and ~1 s per workload (plumbing check)")
    args = parser.parse_args(argv)
    _load_program()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
    seconds = min(args.seconds, 1.0) if args.smoke else args.seconds
    bench = Bench(args.seed, seconds, bool(args.trace), args.smoke)
    results: dict[str, Any] = {}
    try:
        for name in names:
            results[name] = bench.run(name)
    finally:
        bench.close()

    final: dict[str, Any] = {}
    layers = layer_metrics()
    declared = layers if args.trace else E2E_METRICS
    for name, res in results.items():
        for metric, unit in E2E_METRICS.items():
            print(f"{name} {metric} {res['metrics'][metric]!r} {unit}")
        print(f"{name} error_rate {res['error_rate']!r} ratio")
        for metric, unit in layers.items() if args.trace else ():
            print(f"{name} {metric} {res['layers'][metric]!r} {unit}")
        values = res["layers"] if args.trace else res["metrics"]
        prefix = "" if len(results) == 1 else f"{name}/"
        final.update({f"{prefix}{m}": {"value": values[m], "unit": u}
                      for m, u in declared.items()})
        for note in res.get("absent", {}).items():
            print(f"e2e: {name}: layer absent: {note[0]} ({note[1]})", file=sys.stderr)
        for flag in res["flags"] + res["mismatches"]:
            print(f"e2e: {name}: {flag}", file=sys.stderr)
    correct = not any(res["mismatches"] for res in results.values())
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "seed": args.seed, "seconds": seconds, "trace": args.trace,
            "smoke": args.smoke, "clients": CLIENTS, "cpus": os.cpu_count(),
            "python": sys.version.split()[0], "correct": correct,
            "workloads": results}, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["attempted"] - r["ok"] for r in results.values()),
        "metrics": final}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
