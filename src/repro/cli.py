"""Command-line interface.

::

    repro list                         # catalogue of reproducible figures
    repro run fig1a                    # run a figure (coarse grid)
    repro run fig2a --full --reps 100  # the paper-dense version
    repro run fig2a --jobs 4           # fan topologies over 4 processes
    repro run fig3 --csv out/fig3.csv  # also export the series
    repro demo                         # 30-second end-to-end demo
    repro --profile demo               # ... plus the instrumentation table
    repro --profile --trace t.jsonl plan   # ... plus a JSONL trace file
    repro serve --port 7351 --workers 4    # long-lived planning service
    repro check fuzz --seed 4 --budget 50  # differential verification fuzzer
    repro check replay check_reproducer.json   # re-run a shrunk failure
    repro check selftest                   # assert the harness catches planted bugs
    repro check sim                        # event engine == legacy loop, bit for bit
    repro run fig1a --failures 0.01:5      # any panel under charger breakdowns
    repro simulate --network n.json --plan p.json --churn 0.05:12 \
          --event-spill events.jsonl       # dynamic replay, full event history
    repro plan --cache-dir .plan-store     # persist plan artifacts across runs
    repro cache stats --cache-dir .plan-store    # inspect the on-disk store
    repro cache verify --cache-dir .plan-store   # integrity-scan + quarantine
    repro score --suite quick --jobs 2     # scenario scoreboard vs the golden
    repro score --suite quick --update-golden    # re-bless the golden scorecard
    repro watch --port 7350                # live dashboard over a fleet/serve
    repro watch --port 7350 --svg dash.svg --jsonl frames.jsonl   # + sinks

Also available as ``python -m repro ...``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.errors import CheckError, ConfigError
from repro.experiments.figures import FIGURES, get_figure
from repro.obs import Instrumentation, configure_logging, get_logger
from repro.reporting.csvio import sweep_to_csv
from repro.reporting.experiments_md import figure_markdown

__all__ = ["main", "build_parser"]

log = get_logger(__name__)


def _require_positive(value: int, flag: str) -> int:
    """Reject non-positive worker counts before any pool is constructed.

    ``--jobs 0`` (or a negative value) used to surface as a raw executor
    traceback deep inside the run; fail fast with a clean
    :class:`~repro.errors.ConfigError` naming the flag instead.
    """
    if value < 1:
        raise ConfigError(f"{flag} must be >= 1, got {value}")
    return value


def _parse_rate_pair(raw: str, flag: str) -> tuple[float, float]:
    """Parse a ``RATE:DURATION`` flag value (e.g. ``--failures 0.01:5``)."""
    rate_s, sep, dur_s = raw.partition(":")
    try:
        if not sep:
            raise ValueError("missing ':'")
        rate, duration = float(rate_s), float(dur_s)
    except ValueError:
        raise ConfigError(
            f"{flag} expects RATE:DURATION (e.g. 0.01:5), got {raw!r}") from None
    return rate, duration


def _add_dynamics_flags(p: "argparse.ArgumentParser") -> None:
    """The dynamic-scenario knobs shared by ``run`` and ``simulate``."""
    p.add_argument("--failures", default=None, metavar="RATE:MTTR",
                   help="charger breakdowns: exponential failure rate per "
                        "charger and mean time to repair (e.g. 0.01:5)")
    p.add_argument("--churn", default=None, metavar="RATE:DOWNTIME",
                   help="sensor membership churn: leave rate across the "
                        "network and per-absence downtime (e.g. 0.05:12)")
    p.add_argument("--requests", type=float, default=None, metavar="RATE",
                   help="Poisson on-demand charging-request arrival rate")
    p.add_argument("--dynamics-seed", type=int, default=0, metavar="SEED",
                   help="seed for the failure/churn/request event streams "
                        "(default 0)")


def _dynamics_overrides(args: argparse.Namespace) -> dict:
    """Map the parsed dynamics flags to ExperimentConfig overrides."""
    overrides: dict = {}
    if args.failures is not None:
        rate, mttr = _parse_rate_pair(args.failures, "--failures")
        overrides.update(failure_rate=rate, failure_mttr=mttr)
    if args.churn is not None:
        rate, down = _parse_rate_pair(args.churn, "--churn")
        overrides.update(churn_rate=rate, churn_downtime=down)
    if args.requests is not None:
        overrides.update(request_rate=args.requests)
    if overrides:
        overrides.update(dynamics_seed=args.dynamics_seed)
    return overrides


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of 'Towards Perpetual Sensor Networks via "
                     "Deploying Multiple Mobile Wireless Chargers' (ICPP 2014)"),
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="debug-level diagnostics (repeatable)")
    parser.add_argument("--profile", action="store_true",
                        help="collect instrumentation and print the stats "
                             "table after the command")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write the instrumentation trace (JSONL) here; "
                             "implies --profile collection")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="catalogue of reproducible figures/ablations")

    run = sub.add_parser("run", help="run one registered figure")
    run.add_argument("figure", help=f"figure id, one of: {', '.join(sorted(FIGURES))}")
    run.add_argument("--reps", type=int, default=None,
                     help="topologies per point (default: figure's setting; paper uses 100)")
    run.add_argument("--full", action="store_true",
                     help="use the paper-dense sweep grid")
    run.add_argument("--csv", default=None, metavar="PATH",
                     help="export the series to a CSV file")
    run.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="worker processes per sweep (topology jobs; results "
                          "are bit-identical to --jobs 1)")
    run.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="persist plan artifacts to this on-disk store; "
                          "repeat runs replan warm (results unchanged)")
    run.add_argument("--quiet", action="store_true", help="suppress progress lines")
    _add_dynamics_flags(run)

    sub.add_parser("demo", help="end-to-end demo on one small topology")

    report = sub.add_parser(
        "report", help="run figures and write a paper-vs-measured markdown report")
    report.add_argument("--figures", nargs="+", default=None, metavar="ID",
                        help="figure ids to include (default: every registered panel)")
    report.add_argument("--reps", type=int, default=None,
                        help="topologies per point (default: figure settings)")
    report.add_argument("--full", action="store_true",
                        help="paper-dense sweep grids")
    report.add_argument("--out", default="EXPERIMENTS.md", metavar="PATH",
                        help="output markdown file (default: EXPERIMENTS.md)")
    report.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes per sweep (topology jobs; results "
                             "are bit-identical to --jobs 1)")
    report.add_argument("--quiet", action="store_true")

    plan = sub.add_parser(
        "plan", help="build a topology, plan it with MinTotalDistance, save both")
    plan.add_argument("--n", type=int, default=100, help="sensors (default 100)")
    plan.add_argument("--q", type=int, default=5, help="chargers (default 5)")
    plan.add_argument("--horizon", type=float, default=1000.0,
                      help="monitoring period T (default 1000)")
    plan.add_argument("--seed", type=int, default=2014)
    plan.add_argument("--distribution", choices=["linear", "random"],
                      default="linear")
    plan.add_argument("--refine", action="store_true",
                      help="2-opt refine all tours")
    plan.add_argument("--cache-dir", default=None, metavar="DIR",
                      help="read/write plan artifacts through this on-disk "
                           "store; a repeat plan over the same geometry "
                           "replans warm (results unchanged)")
    plan.add_argument("--network-out", default="network.json", metavar="PATH")
    plan.add_argument("--plan-out", default="plan.json", metavar="PATH")

    simulate_p = sub.add_parser(
        "simulate", help="replay a saved plan against its saved network")
    simulate_p.add_argument("--network", required=True, metavar="PATH")
    simulate_p.add_argument("--plan", required=True, metavar="PATH")
    simulate_p.add_argument("--speed", type=float, default=None,
                            help="vehicle speed for the timescale check "
                                 "(distance units per time unit)")
    _add_dynamics_flags(simulate_p)
    simulate_p.add_argument("--event-spill", default=None, metavar="PATH",
                            help="stream the full per-event log to this JSONL "
                                 "file (readable with repro.obs.trace)")
    simulate_p.add_argument("--event-log-limit", type=int, default=None,
                            metavar="N",
                            help="keep only the last N events of each kind in "
                                 "memory (counts stay exact; combine with "
                                 "--event-spill for the full history)")

    serve_p = sub.add_parser(
        "serve", help="long-lived planning service (newline-delimited JSON over TCP)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=7351,
                         help="TCP port (0 picks an ephemeral one; default 7351)")
    serve_p.add_argument("--workers", type=int, default=1, metavar="N",
                         help="planner workers (processes by default)")
    serve_p.add_argument("--executor", choices=["process", "thread"],
                         default="process",
                         help="worker pool kind: 'process' for CPU parallelism "
                              "(per-process artifact caches), 'thread' for one "
                              "shared cache and cheap startup")
    serve_p.add_argument("--queue-limit", type=int, default=32, metavar="N",
                         help="max in-flight jobs before requests are rejected "
                              "with a structured 'overloaded' error")
    serve_p.add_argument("--deadline", type=float, default=30.0, metavar="SEC",
                         help="default per-request deadline (0 disables)")
    serve_p.add_argument("--drain-timeout", type=float, default=10.0, metavar="SEC",
                         help="grace period for in-flight requests on SIGTERM")
    serve_p.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="persist worker plan artifacts to this on-disk "
                              "store; pools warm-start from it at boot and "
                              "flush to it on drain")
    serve_p.add_argument("--port-file", default=None, metavar="PATH",
                         help="write 'host:port' here once bound (how a fleet "
                              "supervisor learns a --port 0 shard's address)")

    fleet_p = sub.add_parser(
        "fleet", help="sharded planning fleet: consistent-hash router in "
                      "front of N supervised serve shards")
    fleet_p.add_argument("--host", default="127.0.0.1")
    fleet_p.add_argument("--port", type=int, default=7350,
                         help="router TCP port (0 picks an ephemeral one; "
                              "default 7350)")
    fleet_p.add_argument("--shards", type=int, default=2, metavar="N",
                         help="backend serve shards (default 2)")
    fleet_p.add_argument("--shard-mode", choices=["process", "thread"],
                         default="process",
                         help="'process' runs each shard as its own repro "
                              "serve subprocess (true CPU scale-out, the "
                              "default); 'thread' embeds them in-process "
                              "(cheap, tests/smoke)")
    fleet_p.add_argument("--workers", type=int, default=1, metavar="N",
                         help="planner workers per shard")
    fleet_p.add_argument("--executor", choices=["process", "thread"],
                         default="thread",
                         help="worker pool kind inside each shard")
    fleet_p.add_argument("--queue-limit", type=int, default=64, metavar="N",
                         help="per-shard admission queue limit")
    fleet_p.add_argument("--deadline", type=float, default=60.0, metavar="SEC",
                         help="default per-request deadline (0 disables)")
    fleet_p.add_argument("--retries", type=int, default=2, metavar="N",
                         help="fail-over shards tried after the primary "
                              "before the client sees shard_unavailable")
    fleet_p.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="shared tier-3 artifact store root — one "
                              "directory for every shard, so a plan computed "
                              "anywhere is warm everywhere")

    cache_p = sub.add_parser(
        "cache", help="inspect and maintain an on-disk plan-artifact store")
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)

    def _cache_sub(name: str, help_: str) -> argparse.ArgumentParser:
        p = cache_sub.add_parser(name, help=help_)
        p.add_argument("--cache-dir", required=True, metavar="DIR",
                       help="store directory (as passed to plan/run/serve)")
        return p

    _cache_sub("stats", "entry counts, byte totals and session traffic")
    _cache_sub("verify", "integrity-scan every entry; quarantine corrupt ones")
    gc_p = _cache_sub("gc", "trim the store to size budgets, oldest-read first")
    gc_p.add_argument("--max-entries", type=int, default=None, metavar="N",
                      help="keep at most N entries")
    gc_p.add_argument("--max-bytes", type=int, default=None, metavar="BYTES",
                      help="keep at most BYTES of entry data")
    _cache_sub("clear", "delete every entry (and quarantined file)")

    check_p = sub.add_parser(
        "check", help="differential verification harness (fuzz / replay / selftest)")
    check_sub = check_p.add_subparsers(dest="check_command", required=True)

    fuzz_p = check_sub.add_parser(
        "fuzz", help="fuzz random scenarios through the differential suite")
    fuzz_p.add_argument("--seed", default="0", metavar="SEED",
                        help="determinism seed; any string is accepted "
                             "(non-integers, e.g. a commit hash, are mapped "
                             "through sha256)")
    fuzz_p.add_argument("--budget", type=int, default=50, metavar="N",
                        help="scenarios to run (default 50)")
    fuzz_p.add_argument("--out", default="check_reproducer.json", metavar="PATH",
                        help="where to write the shrunk reproducer on failure")
    fuzz_p.add_argument("--serve-every", type=int, default=5, metavar="N",
                        help="run the serve differential every N-th scenario "
                             "(0 disables)")
    fuzz_p.add_argument("--executor-every", type=int, default=25, metavar="N",
                        help="run the executor differential every N-th "
                             "scenario (0 disables)")
    fuzz_p.add_argument("--quiet", action="store_true",
                        help="suppress per-scenario progress lines")

    replay_p = check_sub.add_parser(
        "replay", help="re-run a reproducer file written by a failing fuzz")
    replay_p.add_argument("reproducer", metavar="PATH",
                          help="reproducer JSON (default fuzz output: "
                               "check_reproducer.json)")

    check_sub.add_parser(
        "selftest", help="plant known bugs and assert the harness catches them")

    sim_p = check_sub.add_parser(
        "sim", help="prove the event engine equivalent to the legacy slotted "
                    "loop and the failure-storm scenario deterministic")
    sim_p.add_argument("--seed", type=int, default=0,
                       help="scenario seed (default 0)")

    fleetcheck_p = check_sub.add_parser(
        "fleet", help="fleet differential: responses through the router are "
                      "payload-identical to single-node serve, including "
                      "across an injected mid-run shard kill")
    fleetcheck_p.add_argument("--seed", type=int, default=0,
                              help="scenario seed (default 0)")
    fleetcheck_p.add_argument("--shards", type=int, default=2, metavar="N",
                              help="fleet size for the comparison (default 2)")

    score_p = sub.add_parser(
        "score", help="run the scenario suite over every registered policy "
                      "and gate against the golden scorecard")
    score_p.add_argument("--suite", default="quick", metavar="NAME",
                         help="registered suite to run (default: quick)")
    score_p.add_argument("--policies", nargs="+", default=None, metavar="NAME",
                         help="subset of registered policies (default: all)")
    score_p.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes for the scenario/topology "
                              "fan-out (gated metrics are identical to "
                              "--jobs 1)")
    score_p.add_argument("--out", default="SCORECARD.json", metavar="PATH",
                         help="scorecard output path (default: SCORECARD.json)")
    score_p.add_argument("--baseline", default=None, metavar="PATH",
                         help="golden scorecard to gate against (default: "
                              "golden/SCORECARD.<suite>.json)")
    score_p.add_argument("--update-golden", action="store_true",
                         help="write the baseline instead of comparing "
                              "against it (bless the current behaviour)")
    score_p.add_argument("--markdown", default=None, metavar="PATH",
                         help="also write the scorecard as a markdown table")
    score_p.add_argument("--svg", default=None, metavar="PATH",
                         help="also write the scorecard as an SVG table")
    score_p.add_argument("--quiet", action="store_true",
                         help="suppress per-scenario progress lines")

    watch_p = sub.add_parser(
        "watch", help="live terminal dashboard over a serve/fleet 'watch' "
                      "metric subscription")
    watch_p.add_argument("--host", default="127.0.0.1")
    watch_p.add_argument("--port", type=int, default=7350,
                         help="serve or fleet-router port (default: the "
                              "fleet router's 7350)")
    watch_p.add_argument("--interval", type=float, default=1.0, metavar="SEC",
                         help="frame period requested from the server "
                              "(default 1.0)")
    watch_p.add_argument("--duration", type=float, default=0.0, metavar="SEC",
                         help="stop after this long (0 = until the stream "
                              "ends or Ctrl-C)")
    watch_p.add_argument("--frames", type=int, default=0, metavar="N",
                         help="stop after N frames (0 = unlimited)")
    watch_p.add_argument("--once", action="store_true",
                         help="render a single frame and exit "
                              "(same as --frames 1)")
    watch_p.add_argument("--plain", action="store_true",
                         help="append panels instead of redrawing in place "
                              "(no ANSI escapes; logs, pipes, CI)")
    watch_p.add_argument("--jsonl", default=None, metavar="PATH",
                         help="also append every received frame here as "
                              "NDJSON (replayable, machine-readable)")
    watch_p.add_argument("--svg", default=None, metavar="PATH",
                         help="also rewrite the panel here as SVG on every "
                              "frame (CI artifact / README screenshot)")
    return parser


def _cmd_list() -> int:
    width = max(len(k) for k in FIGURES)
    for fid in sorted(FIGURES):
        spec = FIGURES[fid]
        print(f"{fid.ljust(width)}  {spec.title}")
        print(f"{' ' * width}  paper: {spec.paper_claim}")
    return 0


def _cmd_run(args: argparse.Namespace, obs: Instrumentation | None) -> int:
    _require_positive(args.jobs, "--jobs")
    spec = get_figure(args.figure)
    progress = None if args.quiet else log.info
    t0 = time.perf_counter()
    result = spec.run(n_topologies=args.reps, full=args.full, progress=progress,
                      obs=obs, jobs=args.jobs, cache_dir=args.cache_dir,
                      overrides=_dynamics_overrides(args))
    elapsed = time.perf_counter() - t0
    print()
    print(figure_markdown(spec, result, spec.check(result)))
    log.info("(completed in %.1fs)", elapsed)
    if args.csv:
        path = sweep_to_csv(result, args.csv)
        log.info("series written to %s", path)
    return 0


def _cmd_demo(obs: Instrumentation | None) -> int:
    from repro.baselines.greedy import GreedyOnDemandPolicy
    from repro.core.bounds import empirical_ratio, lemma3_lower_bound
    from repro.core.mintotal import min_total_distance
    from repro.network.builder import build_paper_network
    from repro.sim.engine import simulate
    from repro.sim.policies import PlannedPolicy
    from repro.sim.workload import FixedWorkload

    log.info("Building one paper topology: n=100 sensors, q=5 chargers, "
             "1000m x 1000m, linear cycles in [1, 50] ...")
    net = build_paper_network(n=100, q=5, seed=2014)
    horizon = 1000.0
    workload = FixedWorkload.from_network(net)

    result = min_total_distance(net, horizon, obs=obs)
    print(f"MinTotalDistance: K={result.quantization.K}, "
          f"{len(result.plan)} schedulings, guarantee 2(K+2) = "
          f"{2 * (result.quantization.K + 2)}x")
    mtd = simulate(net, PlannedPolicy(result.plan), workload, horizon,
                   instrumentation=obs)
    greedy = simulate(net, GreedyOnDemandPolicy(), workload, horizon,
                      instrumentation=obs)
    lb = lemma3_lower_bound(net, horizon)
    print(f"MinTotalDistance service cost: {mtd.metrics.service_cost:,.0f} m "
          f"({mtd.metrics.summary()})")
    print(f"Greedy           service cost: {greedy.metrics.service_cost:,.0f} m "
          f"({greedy.metrics.summary()})")
    print(f"cost ratio MTD/Greedy: "
          f"{mtd.metrics.service_cost / greedy.metrics.service_cost:.3f} "
          f"(paper: 0.55-0.60 under the linear distribution)")
    print(f"Lemma-3 lower bound: {lb.bound:,.0f} m -> empirical approximation "
          f"ratio {empirical_ratio(mtd.metrics.service_cost, lb):.2f}")
    return 0


def _cmd_report(args: argparse.Namespace, obs: Instrumentation | None) -> int:
    _require_positive(args.jobs, "--jobs")
    from pathlib import Path

    from repro.reporting.experiments_md import experiments_markdown

    ids = args.figures if args.figures else list(FIGURES)
    for fid in ids:
        get_figure(fid)  # validate before the long run
    progress = None if args.quiet else log.info
    text = experiments_markdown(ids, n_topologies=args.reps, full=args.full,
                                progress=progress, obs=obs, jobs=args.jobs)
    out = Path(args.out)
    out.write_text(text)
    log.info("report written to %s", out.resolve())
    return 0


def _cmd_plan(args: argparse.Namespace, obs: Instrumentation | None) -> int:
    from repro.core.feasibility import check_feasibility
    from repro.core.mintotal import min_total_distance
    from repro.io import save_network, save_plan
    from repro.network.builder import build_paper_network
    from repro.network.cycles import LinearCycleDistribution, RandomCycleDistribution

    dist = (LinearCycleDistribution() if args.distribution == "linear"
            else RandomCycleDistribution())
    net = build_paper_network(n=args.n, q=args.q, distribution=dist,
                              seed=args.seed)
    store = None
    if args.cache_dir is not None:
        from repro.plan.store import PlanArtifactStore

        store = PlanArtifactStore(args.cache_dir)
    result = min_total_distance(net, args.horizon, refine=args.refine,
                                store=store, obs=obs)
    report = check_feasibility(result.plan, net.cycles)
    if not report.feasible:  # cannot happen by Lemma 2; belt and braces
        log.error("%s", report.summary())
        return 1
    net_path = save_network(net, args.network_out)
    plan_path = save_plan(result.plan, args.plan_out)
    cost = result.plan.total_cost(coords=net.coordinates)
    print(f"topology : n={net.n} q={net.q} seed={args.seed} "
          f"({args.distribution} cycles) -> {net_path}")
    print(f"plan     : {len(result.plan)} schedulings over T={args.horizon:g}, "
          f"K={result.quantization.K}, service cost {cost:,.0f} m -> {plan_path}")
    print(f"guarantee: within 2(K+2) = {2 * (result.quantization.K + 2)}x of optimal; "
          f"{report.summary()}")
    return 0


def _cmd_simulate(args: argparse.Namespace, obs: Instrumentation | None) -> int:
    from repro.io import load_network, load_plan
    from repro.reporting.timeline import run_digest
    from repro.sim.engine import simulate as run_sim
    from repro.sim.policies import PlannedPolicy
    from repro.sim.workload import FixedWorkload

    net = load_network(args.network)
    plan = load_plan(args.plan)
    plan.validate_for(net)  # catch mismatched files before simulating
    dyn = _dynamics_overrides(args)
    sources = ()
    if dyn:
        from repro.sim.sources import ScenarioDynamics

        dynamics = ScenarioDynamics(
            failure_rate=dyn.get("failure_rate", 0.0),
            failure_mttr=dyn.get("failure_mttr", 0.0),
            churn_rate=dyn.get("churn_rate", 0.0),
            churn_downtime=dyn.get("churn_downtime", 0.0),
            request_rate=dyn.get("request_rate", 0.0),
            seed=args.dynamics_seed)
        sources = dynamics.build_sources()
    out = run_sim(net, PlannedPolicy(plan), FixedWorkload.from_network(net),
                  plan.horizon, instrumentation=obs, sources=sources,
                  max_log_events=args.event_log_limit,
                  event_spill=args.event_spill)
    print(run_digest(out.metrics, plan.horizon))
    if args.speed is not None:
        from repro.analysis.timescale import validate_timescales

        report = validate_timescales(plan, net.coordinates, net.cycles,
                                     speed=args.speed)
        print(report.summary())
    return 0 if out.metrics.perpetual else 1


def _coerce_seed(raw: str) -> int:
    """Accept any string as a fuzz seed.

    Integers pass through; anything else (a git commit hash in CI, a branch
    name) is mapped through sha256 so the same string always fuzzes the
    same scenarios.
    """
    import hashlib

    try:
        return int(raw, 0)
    except ValueError:
        digest = hashlib.sha256(raw.encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "big")


def _cmd_check(args: argparse.Namespace, obs: Instrumentation | None) -> int:
    from repro.check import fuzz, replay, run_selftest

    if args.check_command == "fuzz":
        _require_positive(args.budget, "--budget")
        seed = _coerce_seed(args.seed)
        if str(seed) != args.seed:
            log.info("seed %r -> %d", args.seed, seed)
        progress = None if args.quiet else print
        report = fuzz(seed, args.budget, out=args.out,
                      serve_every=args.serve_every,
                      executor_every=args.executor_every,
                      obs=obs, progress=progress)
        print(report.summary())
        return 0 if report.ok else 1
    if args.check_command == "replay":
        failures = replay(args.reproducer, obs=obs)
        if failures:
            print(f"replay: {args.reproducer} still fails:")
            for f in failures:
                print(f"  - {f}")
            return 1
        print(f"replay: {args.reproducer} no longer fails")
        return 0
    if args.check_command == "sim":
        from repro.check.simcheck import run_sim_check

        problems = run_sim_check(seed=args.seed, obs=obs)
        if problems:
            print(f"sim check (seed {args.seed}): FAILED:")
            for p in problems:
                print(f"  - {p}")
            return 1
        print(f"sim check (seed {args.seed}): engine equivalence and "
              f"failure-storm determinism hold")
        return 0
    if args.check_command == "fleet":
        from repro.check.fleetcheck import run_fleet_check

        _require_positive(args.shards, "--shards")
        problems = run_fleet_check(seed=args.seed, shards=args.shards, obs=obs)
        if problems:
            print(f"fleet check (seed {args.seed}): FAILED:")
            for p in problems:
                print(f"  - {p}")
            return 1
        print(f"fleet check (seed {args.seed}): fleet responses identical to "
              f"single-node across {args.shards} shards, fail-over invisible, "
              f"drain delivers in-flight work")
        return 0
    # selftest
    problems = run_selftest(obs=obs)
    if problems:
        print("selftest: the harness has gone blind:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print("selftest: all planted mutations caught")
    return 0


def _cmd_score(args: argparse.Namespace, obs: Instrumentation | None) -> int:
    _require_positive(args.jobs, "--jobs")
    from pathlib import Path

    from repro.reporting.scorecard import save_scorecard_svg, scorecard_markdown
    from repro.scenarios import (
        METRICS,
        Scorecard,
        compare_scorecards,
        default_baseline_path,
        score_suite,
    )

    progress = None if args.quiet else log.info
    t0 = time.perf_counter()
    card = score_suite(args.suite,
                       tuple(args.policies) if args.policies else None,
                       jobs=args.jobs, obs=obs, progress=progress)
    elapsed = time.perf_counter() - t0
    out = card.save(args.out)
    log.info("scored %d cells across %d scenarios in %.1fs -> %s",
             card.n_cells, len(card.scenarios), elapsed, out)

    columns = [(m.key, m.label, m.fmt) for m in METRICS]
    if args.markdown:
        text = scorecard_markdown(card.scenarios, columns,
                                  title=f"Scorecard — suite {card.suite}")
        path = Path(args.markdown)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        log.info("markdown scorecard written to %s", path.resolve())
    if args.svg:
        path = save_scorecard_svg(card.scenarios, columns, args.svg,
                                  title=f"Scorecard — suite {card.suite}")
        log.info("SVG scorecard written to %s", path)

    baseline_path = (Path(args.baseline) if args.baseline
                     else default_baseline_path(card.suite))
    if args.update_golden:
        written = card.save(baseline_path)
        print(f"golden scorecard updated: {written}")
        return 0
    if not baseline_path.exists():
        print(f"score: no golden scorecard at {baseline_path}; run "
              f"'repro score --suite {card.suite} --update-golden' to "
              f"create one (not gating this run)")
        return 0
    baseline = Scorecard.load(baseline_path)
    regressions, improvements = compare_scorecards(card, baseline)
    for note in improvements:
        print(f"improved: {note}")
    if regressions:
        print(f"score: {len(regressions)} regression(s) vs {baseline_path}:")
        for reg in regressions:
            print(f"  - {reg.describe()}")
        return 1
    print(f"score: {card.n_cells} cells within tolerance of {baseline_path}")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.errors import ServeError
    from repro.reporting.dashboard import (
        DashboardState,
        render_dashboard,
        save_dashboard_svg,
    )
    from repro.serve.watch import WatchClient

    if args.interval <= 0:
        raise ConfigError(f"--interval must be > 0, got {args.interval}")
    n_frames = 1 if args.once else args.frames
    state = DashboardState()
    try:
        client = WatchClient(args.host, args.port, interval=args.interval)
    except (OSError, ServeError) as exc:
        print(f"repro watch: cannot subscribe to {args.host}:{args.port}: "
              f"{exc}", file=sys.stderr)
        return 1
    log.info("watching %s:%s (%s, every %.2fs)", args.host, args.port,
             client.info.get("role", "?"), client.info.get("interval", 0.0))
    jsonl = open(args.jsonl, "a", encoding="utf-8") if args.jsonl else None
    deadline = (time.monotonic() + args.duration) if args.duration > 0 else None
    try:
        for frame in client.frames():
            state.ingest(frame)
            if jsonl is not None:
                jsonl.write(_json_line(frame.to_dict()))
                jsonl.flush()
            panel = render_dashboard(state)
            if args.plain:
                print(panel, end="\n\n", flush=True)
            else:
                # Clear + home, then the panel: redraw in place.
                print(f"\x1b[2J\x1b[H{panel}", flush=True)
            if args.svg:
                save_dashboard_svg(state, args.svg)
            if n_frames and state.n_frames >= n_frames:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
    except KeyboardInterrupt:
        pass
    finally:
        client.close()
        if jsonl is not None:
            jsonl.close()
    if state.n_frames == 0:
        print("repro watch: stream ended before the first frame",
              file=sys.stderr)
        return 1
    log.info("watch closed: %d frames, %d gap(s)",
             state.n_frames, client.n_dropped)
    return 0


def _json_line(data: dict) -> str:
    import json

    return json.dumps(data, separators=(",", ":")) + "\n"


def _cmd_serve(args: argparse.Namespace, obs: Instrumentation | None) -> int:
    _require_positive(args.workers, "--workers")
    _require_positive(args.queue_limit, "--queue-limit")
    from repro.serve.server import ServeConfig, serve

    config = ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        executor=args.executor, queue_limit=args.queue_limit,
        default_deadline=(args.deadline if args.deadline > 0 else None),
        drain_timeout=args.drain_timeout, cache_dir=args.cache_dir)
    return serve(config, obs=obs, port_file=args.port_file)


def _cmd_fleet(args: argparse.Namespace, obs: Instrumentation | None) -> int:
    _require_positive(args.shards, "--shards")
    _require_positive(args.workers, "--workers")
    _require_positive(args.queue_limit, "--queue-limit")
    if args.retries < 0:
        raise ConfigError(f"--retries must be >= 0, got {args.retries}")
    from repro.fleet import FleetConfig, serve_fleet

    config = FleetConfig(
        host=args.host, port=args.port, shards=args.shards,
        shard_mode=args.shard_mode, workers=args.workers,
        executor=args.executor, queue_limit=args.queue_limit,
        default_deadline=(args.deadline if args.deadline > 0 else None),
        retries=args.retries, cache_dir=args.cache_dir)
    return serve_fleet(config, obs=obs)


def _cmd_cache(args: argparse.Namespace, obs: Instrumentation | None) -> int:
    from repro.plan.store import PlanArtifactStore

    store = PlanArtifactStore(args.cache_dir)
    if args.cache_command == "stats":
        flat: dict[str, object] = {}
        for key, value in store.stats().items():
            if isinstance(value, dict):  # session tallies, incl. lock waits
                for sub, v in value.items():
                    flat[f"{key}.{sub}"] = round(v, 6) if isinstance(v, float) else v
            else:
                flat[key] = value
        width = max(len(k) for k in flat)
        for key, value in flat.items():
            print(f"{key.ljust(width)}  {value}")
        return 0
    if args.cache_command == "verify":
        report = store.verify(obs=obs)
        print(f"verify: {report['checked']} checked, {report['ok']} ok, "
              f"{report['corrupt']} corrupt (quarantined)")
        return 0 if report["corrupt"] == 0 else 1
    if args.cache_command == "gc":
        report = store.gc(max_entries=args.max_entries,
                          max_bytes=args.max_bytes, obs=obs)
        print(f"gc: kept {report['kept']}, removed {report['removed']}, "
              f"purged {report['quarantine_purged']} quarantined")
        return 0
    # clear
    removed = store.clear(obs=obs)
    print(f"clear: removed {removed} entries from {args.cache_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(args.verbose)
    obs = Instrumentation() if (args.profile or args.trace) else None
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args, obs)
        if args.command == "demo":
            return _cmd_demo(obs)
        if args.command == "report":
            return _cmd_report(args, obs)
        if args.command == "plan":
            return _cmd_plan(args, obs)
        if args.command == "simulate":
            return _cmd_simulate(args, obs)
        if args.command == "serve":
            return _cmd_serve(args, obs)
        if args.command == "fleet":
            return _cmd_fleet(args, obs)
        if args.command == "check":
            return _cmd_check(args, obs)
        if args.command == "score":
            return _cmd_score(args, obs)
        if args.command == "watch":
            return _cmd_watch(args)
        if args.command == "cache":
            return _cmd_cache(args, obs)
        return 2  # unreachable: argparse enforces the choices
    except (CheckError, ConfigError) as exc:
        # Invalid flag values (--jobs 0, --workers 0, ...) are usage
        # errors: one line on stderr, argparse's exit code, no traceback.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if obs is not None:
            if args.profile:
                print()
                print(obs.stats_table())
            if args.trace:
                path = obs.write_trace(args.trace)
                log.info("trace written to %s", path)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
