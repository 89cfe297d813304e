"""Micro-benchmarks: runtime scaling of the core algorithms.

These are proper pytest-benchmark measurements (many rounds) of the three
algorithmic layers, sized to the paper's largest instances:

* Algorithm 1 (q-rooted MSF) — the paper charges O(n^2);
* Algorithm 2 (q-rooted TSP) — O(n^2) on top of the MSF;
* Algorithm 3 (MinTotalDistance) — O((tau_max/tau_min) n^2 + (T/tau_min) n).

Regressions here mean someone de-vectorised a kernel.

The instrumentation overhead guard holds the ``repro.obs`` hooks to their
contract: planning with the disabled (``None``) context must stay within
noise of an instrumentation-free run, and even the enabled context must
stay cheap (hooks fire per algorithm invocation, not per inner-loop
iteration).

The pipeline benches at the bottom time the PR-level contracts of the
staged planner (:mod:`repro.plan`): the plan-artifact cache must make the
``mtd-var`` replan pattern at least 2x faster with identical output, and
the parallel experiment executor must stay byte-identical to the serial
path. ``test_cache_footprint`` records what one cold n=2000 plan leaves
resident in a serve worker's artifact cache, and
``test_variable_replan_wall`` records the variable-cycle repair step's
real traffic (no bar). Their measurements are emitted to
``BENCH_pipeline.json`` in the working directory.
"""

import gc
import json
import time
import tracemalloc
from pathlib import Path

import pytest

from repro.core.mintotal import min_total_distance
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import get_figure
from repro.experiments.runner import build_instance, run_cell, run_policy
from repro.io.network_json import network_from_dict, network_to_dict
from repro.network.builder import build_paper_network
from repro.obs import Instrumentation
from repro.plan import PlanArtifactCache
from repro.rooted.msf import q_rooted_msf
from repro.rooted.qtsp import q_rooted_tsp
from repro.tsp.improve import two_opt


@pytest.fixture(scope="module", params=[100, 300, 500])
def sized_network(request):
    return build_paper_network(n=request.param, q=5, seed=42)


def test_scaling_q_rooted_msf(benchmark, sized_network):
    net = sized_network
    sensors = [int(i) for i in net.sensor_indices]
    depots = [int(i) for i in net.depot_indices]
    forest = benchmark(q_rooted_msf, net.dist, sensors, depots)
    assert forest.all_nodes() >= set(sensors)


def test_scaling_q_rooted_tsp(benchmark, sized_network):
    net = sized_network
    sensors = [int(i) for i in net.sensor_indices]
    depots = [int(i) for i in net.depot_indices]
    tours = benchmark(q_rooted_tsp, net.dist, sensors, depots)
    assert sum(t.n_stops for t in tours) == net.n


def test_scaling_min_total_distance(benchmark, sized_network):
    net = sized_network
    result = benchmark.pedantic(
        min_total_distance, args=(net, 1000.0), rounds=3, iterations=1)
    assert len(result.plan) > 0


def test_scaling_two_opt(benchmark):
    net = build_paper_network(n=200, q=1, seed=7)
    tours = q_rooted_tsp(net.dist,
                         [int(i) for i in net.sensor_indices],
                         [int(i) for i in net.depot_indices])
    improved = benchmark(two_opt, net.dist, tours[0])
    assert improved.cost(net.dist) <= tours[0].cost(net.dist) + 1e-9


def test_instrumentation_overhead_guard(benchmark):
    """Disabled instrumentation must cost (close to) nothing.

    Times ``min_total_distance`` with refinement — the hook-densest path:
    plan -> block -> Algorithm 2 -> Algorithm 1 + 2-opt — under the
    disabled context vs a fresh enabled one, best-of-N wall clock each.
    The acceptance bound for the disabled path is 5%; measurement noise on
    a loaded CI box dominates real overhead there, so the guard allows
    1.25x. The enabled path is held to 1.5x as a hook-granularity tripwire
    (per-iteration hooks in a hot loop blow far past that).
    """
    net = build_paper_network(n=200, q=5, seed=42)
    net.dist  # pre-warm the cached distance matrix

    def best_of(n_rounds, **kwargs):
        best = float("inf")
        for _ in range(n_rounds):
            t0 = time.perf_counter()
            min_total_distance(net, 1000.0, refine=True, **kwargs)
            best = min(best, time.perf_counter() - t0)
        return best

    best_of(1)  # warm-up round (allocator, caches)
    disabled = best_of(5)           # obs defaults to None -> NULL
    enabled = best_of(5, obs=Instrumentation())
    baseline = benchmark.pedantic(
        lambda: best_of(5), rounds=1, iterations=1)

    disabled_ratio = disabled / baseline
    enabled_ratio = enabled / baseline
    print(f"\ninstrumentation overhead: baseline {baseline * 1e3:.2f}ms, "
          f"disabled {disabled_ratio:.3f}x, enabled {enabled_ratio:.3f}x")
    assert disabled_ratio < 1.25, (
        f"disabled instrumentation costs {disabled_ratio:.2f}x baseline")
    assert enabled_ratio < 1.5, (
        f"enabled instrumentation costs {enabled_ratio:.2f}x baseline")


def test_watch_delta_emission_cost(benchmark):
    """One streaming frame must stay microscopic next to its interval.

    A subscribed server snapshots its ``Instrumentation`` once per watch
    interval (``DeltaEmitter.frame`` + JSON encoding). Sized like a busy
    node — hundreds of counters, dozens of timers with populated quantile
    sketches — a frame must cost well under a millisecond, i.e. noise
    against the default 1 s interval. The unwatched path is covered by
    ``test_instrumentation_overhead_guard``: no subscription, no emitter,
    no snapshot at all.
    """
    from repro.obs.live import DeltaEmitter

    obs = Instrumentation()
    for i in range(300):
        obs.incr(f"serve.counter.{i}", i)
    for i in range(30):
        name = f"serve.timer.{i}"
        for _ in range(50):
            with obs.span(name):
                pass
    emitter = DeltaEmitter(obs, source="bench")
    emitter.frame()  # first frame carries the cumulative state; skip it

    def one_frame():
        obs.incr("serve.counter.0")
        with obs.span("serve.timer.0"):
            pass
        return json.dumps(emitter.frame().to_dict())

    encoded = benchmark(one_frame)
    assert '"stream": "watch"' in encoded or '"stream"' in encoded


# --------------------------------------------------------------------------
# Staged-pipeline benches (plan-artifact cache; parallel executor)
# --------------------------------------------------------------------------

_PIPELINE_JSON = Path("BENCH_pipeline.json")
_pipeline_measurements: dict = {}


@pytest.fixture(scope="module")
def pipeline_json():
    """Collects the pipeline benches' numbers; written out once at the end
    of the module (partial runs emit whatever they measured)."""
    yield _pipeline_measurements
    if _pipeline_measurements:
        _PIPELINE_JSON.write_text(
            json.dumps(_pipeline_measurements, indent=2, sort_keys=True) + "\n")
        print(f"\npipeline measurements -> {_PIPELINE_JSON.resolve()}")


def test_replan_cache_speedup(benchmark, pipeline_json):
    """The mtd-var replan pattern: repeated Algorithm 3 runs over one fixed
    geometry whose cycle estimates oscillate between two quantisations.

    With a shared :class:`PlanArtifactCache` every replan after the first
    exposure of each quantisation is answered from memoized forests/tours;
    the acceptance bar is >= 2x over the uncached path, with plan output
    identical block-for-block (the cache is a pure accelerator).
    """
    net = build_paper_network(n=400, q=5, seed=42)
    net.dist  # pre-warm the cached distance matrix
    cycles2 = net.cycles.copy()
    cycles2[::2] *= 2.0  # every other sensor drifts one class up
    variants = (None, cycles2)  # None -> the nominal cycles
    n_replans = 8
    horizon = 200.0  # short: the un-cacheable schedule unroll stays small

    def replan_loop(cache):
        return [min_total_distance(net, horizon, refine=True,
                                   cycles=variants[r % len(variants)],
                                   cache=cache)
                for r in range(n_replans)]

    replan_loop(None)  # warm-up (allocator, caches)
    t0 = time.perf_counter()
    uncached = replan_loop(None)
    t_uncached = time.perf_counter() - t0

    cache = PlanArtifactCache()
    t_cached = benchmark.pedantic(
        lambda: _timed(replan_loop, cache), rounds=1, iterations=1)

    # Identical output, replan for replan (the cache-disabled path is the
    # reference semantics).
    cached = replan_loop(cache)
    for a, b in zip(cached, uncached):
        assert a.levels == b.levels

    speedup = t_uncached / t_cached
    pipeline_json["replan_cache"] = {
        "n": net.n, "q": net.q, "replans": n_replans,
        "uncached_s": round(t_uncached, 4), "cached_s": round(t_cached, 4),
        "speedup": round(speedup, 2),
    }
    print(f"\nreplan cache: uncached {t_uncached * 1e3:.1f}ms, "
          f"cached {t_cached * 1e3:.1f}ms, speedup {speedup:.2f}x")
    assert speedup >= 2.0, (
        f"plan-artifact cache speedup {speedup:.2f}x is below the 2x bar")


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_executor_serial_vs_parallel(benchmark, pipeline_json):
    """Times one experiment cell serially and on a 2-worker pool.

    The contract asserted here is byte-identical results; the wall-clock
    ratio is *reported*, not asserted — on single-core CI boxes the pool
    only adds process overhead, while multi-core machines should see it
    approach the worker count for large cells.
    """
    cfg = ExperimentConfig(n=80, horizon=400.0, n_topologies=4, seed=42,
                           algorithms=("mtd", "greedy"))
    run_cell(cfg.with_(n_topologies=1))  # warm-up

    t0 = time.perf_counter()
    serial = run_cell(cfg)
    t_serial = time.perf_counter() - t0

    jobs = 2
    t_parallel = benchmark.pedantic(
        lambda: _timed(lambda: run_cell(cfg, jobs=jobs)), rounds=1, iterations=1)
    parallel = run_cell(cfg, jobs=jobs)

    spec = serial.specs[0]
    for alg in cfg.algorithms:
        for field in ("cost", "deaths"):
            assert (serial.column(spec, alg, field).tobytes()
                    == parallel.column(spec, alg, field).tobytes())

    pipeline_json["executor"] = {
        "n": cfg.n, "topologies": cfg.n_topologies, "jobs": jobs,
        "serial_s": round(t_serial, 4), "parallel_s": round(t_parallel, 4),
        "parallel_over_serial": round(t_parallel / t_serial, 2),
    }
    print(f"\nexecutor: serial {t_serial:.2f}s, "
          f"parallel(jobs={jobs}) {t_parallel:.2f}s")


def test_cache_footprint(benchmark, pipeline_json):
    """Bytes a serve worker's artifact cache retains per cold n=2000 plan.

    Six cold plans (fresh geometries, the plan-cold pattern) go through
    ``execute_plan`` against one cache; :mod:`tracemalloc` counts what
    clearing the cache afterwards frees. Recorded as
    ``cache.bytes_per_cold_plan`` and held to the 250 KB bound of
    ``tests/integration/test_cache_footprint.py``.
    """
    from repro.serve.worker import execute_plan

    n, plans = 2000, 6
    docs = [network_to_dict(build_paper_network(n=n, q=5, seed=s))
            for s in range(plans)]
    cache = PlanArtifactCache()

    def cold_plans():
        for doc in docs:
            execute_plan(network_from_dict(doc), {"horizon": 300.0}, cache=cache)

    tracemalloc.start()
    try:
        benchmark.pedantic(cold_plans, rounds=1, iterations=1)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        info = cache.info()
        cache.clear()
        gc.collect()
        per_plan = (held - tracemalloc.get_traced_memory()[0]) / plans
    finally:
        tracemalloc.stop()

    pipeline_json["cache"] = {
        "n": n, "plans": plans, "entries": info["forests"] + info["tours"],
        "bytes_per_cold_plan": round(per_plan),
    }
    print(f"\ncache footprint: {per_plan / 1e3:.0f} KB per cold n={n} plan")
    assert per_plan <= 250_000


def test_variable_replan_wall(benchmark, pipeline_json):
    """``run_policy`` wall time of ``mtd-var`` and ``mtd-var-defer`` on
    fig5's ΔT = 1, n = 200 cell (topology 0), where nearly every slot
    replans and runs the repair step.

    Recorded with each run's ``plan.cache.tours`` hit/miss counts and
    replan count; the trajectory has no bar.
    """
    spec = next(p for p in get_figure("fig5").points()
                if p.config.slot_duration == 1.0)
    inst = build_instance(spec, 0)

    def run_both():
        cells = {}
        for algorithm in ("mtd-var", "mtd-var-defer"):
            t0 = time.perf_counter()
            row, _ = run_policy(inst, algorithm)
            cells[algorithm] = {
                "wall_s": round(time.perf_counter() - t0, 3),
                "replans": len(row.replan_durs),
                "tours_hit": row.cache_hits, "tours_miss": row.cache_misses,
                "deaths": row.deaths,
            }
        return cells

    cells = benchmark.pedantic(run_both, rounds=1, iterations=1)
    pipeline_json["variable_replan"] = {
        "figure": "fig5", "slot_duration": 1.0, "n": inst.network.n,
        "topology": 0, **cells,
    }
    for algorithm, cell in cells.items():
        print(f"\n{algorithm}: {cell['wall_s']:.2f}s over "
              f"{cell['replans']} replans, tours cache "
              f"{cell['tours_hit']} hit / {cell['tours_miss']} miss")
