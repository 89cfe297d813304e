"""The run executor: (spec, topology) jobs x policies -> one result table.

One **job** is one topology of one
:class:`~repro.experiments.config.ScenarioSpec`: :func:`build_instance`
turns ``(spec, r)`` into the topology's network, workload and
dynamic-event history, then every policy of the job runs against that one
instance — the same network, workload realisation and event replay for
all of them (common random numbers), so per-cell cost ratios are paired
comparisons rather than noise against noise, the variance-reduction trick
behind the paper's smooth curves at only 100 repetitions.

Each policy run (:func:`run_policy`) gets a fresh
:class:`~repro.plan.cache.PlanArtifactCache` and a private
:class:`~repro.obs.instrument.Instrumentation` context and returns one
:class:`RunRow`; a cell's results therefore never depend on which other
policies ran before it. :func:`run_table` is the one entry point: it runs
every job of a batch in-process (``jobs == 1``) or maps them over one
``ProcessPoolExecutor``. Jobs are pure in ``(spec, r)``, so both modes
return bit-identical rows; when the caller is collecting, each policy
run's snapshot is merged into its context in (job, policy) order.

The rows land in one :class:`ResultTable` keyed by ``(spec, policy)``.
A figure panel is a tuple of specs, one per swept value
(:func:`~repro.experiments.sweeps.sweep`, :func:`run_cell` for a single
config); a scorecard is the suite's specs
(:func:`~repro.scenarios.score.score_suite`). Both read the same table:
panels its cost and death columns, the scorecard its one metric fold
(:func:`fold_metrics`).
"""

from __future__ import annotations

from contextlib import nullcontext
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from repro.adaptive.mintotal_var import MinTotalDistanceVarPolicy
from repro.baselines.greedy import GreedyOnDemandPolicy
from repro.baselines.naive import NaiveChargeAllPolicy
from repro.baselines.periodic import periodic_per_sensor_plan
from repro.core.mintotal import min_total_distance
from repro.errors import ConfigError
from repro.experiments.config import ExperimentConfig, ScenarioSpec
from repro.network.builder import build_paper_network
from repro.network.model import SensorNetwork
from repro.obs.instrument import Instrumentation, StatsSnapshot, ensure
from repro.obs.log import get_logger
from repro.obs.quantile import percentile
from repro.plan.cache import PlanArtifactCache
from repro.plan.store import PlanArtifactStore
from repro.sim.engine import simulate
from repro.sim.policies import ChargingPolicy, PlannedPolicy
from repro.sim.workload import FixedWorkload, ResampledWorkload, Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.sources import ScenarioDynamics

__all__ = ["METRIC_KEYS", "Instance", "Job", "ResultTable", "RunRow",
           "build_instance", "fold_metrics", "make_policy", "run_cell",
           "run_policy", "run_table", "topology_seed"]

log = get_logger(__name__)

#: Spawn key for the battery-heterogeneity stream — distinct from the
#: deployment/depot/cycle substreams spawned inside the network builder.
_BATTERY_SPAWN_KEY = (101,)

#: The metric columns of :func:`fold_metrics`, in scorecard column order.
#: Definitions, directions and gate tolerances live in
#: :mod:`repro.scenarios.golden`.
METRIC_KEYS = (
    "service_cost",
    "deaths",
    "dispatches",
    "charger_utilization",
    "energy_delivered",
    "replan_count",
    "replan_latency_p50_ms",
    "replan_latency_p99_ms",
    "cache_hit_rate",
)


def make_policy(name: str, config: ExperimentConfig,
                network: SensorNetwork,
                obs: Instrumentation | None = None,
                cache: PlanArtifactCache | None = None,
                store: "PlanArtifactStore | None" = None) -> ChargingPolicy:
    """Instantiate the named algorithm for one topology.

    Offline algorithms (``mtd``, ``periodic``) are planned against the
    network's *nominal* cycles and wrapped in a
    :class:`~repro.sim.policies.PlannedPolicy`; online ones are returned as
    fresh policy objects. ``obs`` (optional instrumentation) is threaded
    into the planners the algorithm runs, and ``cache`` (optional
    plan-artifact cache) into every staged-pipeline planner. ``store``
    (the optional on-disk tier) additionally carries ``mtd``'s artifacts
    across policies and *runs*: ``mtd+2opt`` reuses ``mtd``'s base tours,
    and a repeat sweep over the same geometry replans warm from disk.
    """
    refine = name.endswith("+2opt")
    base = name.removesuffix("+2opt")
    if base == "mtd":
        result = min_total_distance(network, config.horizon, refine=refine,
                                    base=config.quantization_base,
                                    cache=cache, store=store, obs=obs)
        return PlannedPolicy(result.plan)
    if base == "mtd-var":
        return MinTotalDistanceVarPolicy(refine=refine, cache=cache,
                                         instrumentation=obs)
    if base == "mtd-var-defer":
        return MinTotalDistanceVarPolicy(
            refine=refine, patch_tie_break="defer", cache=cache,
            instrumentation=obs)
    if base == "greedy":
        # The paper's Δl is the distribution parameter tau_min (not the
        # realised minimum of one topology): under variable workloads a
        # redrawn cycle may dip below the realised minimum, and only the
        # distribution bound protects the decision grid.
        return GreedyOnDemandPolicy(threshold=config.tau_min, refine=refine)
    if base == "naive":
        return NaiveChargeAllPolicy(threshold=config.tau_min)
    if base == "periodic":
        return PlannedPolicy(periodic_per_sensor_plan(
            network, config.horizon, grid=config.tau_min, refine=refine))
    raise ConfigError(f"make_policy: unknown algorithm {name!r}")


def topology_seed(config: ExperimentConfig, r: int) -> int:
    """Deterministic child seed of topology ``r`` (identical in every
    execution mode — this is what makes parallel runs bit-reproducible)."""
    return int(np.random.SeedSequence(
        entropy=config.seed, spawn_key=(r,)).generate_state(1)[0])


@dataclass(frozen=True)
class Instance:
    """One materialised topology: what every policy of a job runs against.

    ``workload`` is shared by every policy (common random numbers);
    ``dynamics`` is the topology's
    :class:`~repro.sim.sources.ScenarioDynamics` with its per-topology
    mixed seed, or ``None`` for a static run. Callers build *fresh*
    sources per run (:meth:`build_sources`) so every policy replays the
    identical failure/churn/request history.
    """

    config: ExperimentConfig
    topology: int
    network: SensorNetwork
    workload: Workload
    dynamics: ScenarioDynamics | None

    def build_sources(self) -> tuple:
        """Fresh (unprimed) event sources for one simulation run."""
        return () if self.dynamics is None else self.dynamics.build_sources()


def build_instance(spec: ScenarioSpec, r: int = 0) -> Instance:
    """Materialise topology ``r`` of ``spec`` (pure in ``(spec, r)``).

    With ``spec.battery_range = (lo, hi)`` the unit batteries are replaced
    by capacities drawn uniformly from it, seeded from the topology's child
    seed under a dedicated spawn key. Only the batteries column changes,
    so the copy shares its homogeneous twin's geometry fingerprint (and so
    every cached tour).
    """
    config = spec.config
    topo_seed = topology_seed(config, r)
    network = build_paper_network(
        n=config.n, q=config.q, distribution=config.make_distribution(),
        seed=topo_seed, side=config.side, deployment=config.deployment)
    if spec.battery_range is not None:
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=topo_seed, spawn_key=_BATTERY_SPAWN_KEY))
        network = network.with_batteries(
            rng.uniform(*spec.battery_range, size=network.n))
    if config.variable:
        workload: Workload = ResampledWorkload(
            network=network, distribution=config.make_distribution(),
            slot_duration=config.slot_duration, seed=topo_seed)
    else:
        workload = FixedWorkload.from_network(network)
    return Instance(config=config, topology=r, network=network,
                    workload=workload, dynamics=config.dynamics(r))


@dataclass(frozen=True)
class RunRow:
    """One policy's run on one instance — everything any fold needs.

    Deterministic in the instance and the policy except ``replan_durs``
    (wall-clock durations of the ``replan`` spans, or of the ``plan``
    spans for offline planners)."""

    cost: float
    deaths: int
    dispatches: int
    active_tours: int
    tour_slots: int
    energy: float
    replan_durs: tuple[float, ...]
    cache_hits: int
    cache_misses: int


def run_policy(inst: Instance, algorithm: str,
               store: PlanArtifactStore | None = None,
               ) -> tuple[RunRow, Instrumentation]:
    """Plan and simulate one algorithm on ``inst``.

    Runs under a fresh plan-artifact cache and a private instrumentation
    context (returned alongside the row); ``store`` is the optional shared
    on-disk artifact tier.
    """
    o = Instrumentation()
    with o.span(f"cell.{algorithm}", topology=inst.topology):
        policy = make_policy(algorithm, inst.config, inst.network, obs=o,
                             cache=PlanArtifactCache(), store=store)
        out = simulate(inst.network, policy, inst.workload,
                       inst.config.horizon, strict=inst.config.strict,
                       instrumentation=o, sources=inst.build_sources())
    m = out.metrics
    # Adaptive policies time each re-plan under ``replan`` (which nests a
    # ``plan`` span); offline planners only record ``plan``. Prefer the
    # outer span so nothing double-counts.
    spans = o.spans("replan") or o.spans("plan")
    row = RunRow(
        cost=float(m.service_cost), deaths=int(m.n_deaths),
        dispatches=int(m.n_dispatches),
        active_tours=sum(ev.n_active_chargers for ev in m.dispatches),
        tour_slots=int(m.n_dispatches * inst.network.q),
        energy=float(m.energy_delivered),
        replan_durs=tuple(float(s.dur) for s in spans),
        cache_hits=int(o.counters.get("plan.cache.tours.hit", 0)),
        cache_misses=int(o.counters.get("plan.cache.tours.miss", 0)))
    return row, o


@dataclass(frozen=True)
class Job:
    """One topology of one spec, and the algorithms to run on it."""

    spec: ScenarioSpec
    topology: int
    policies: tuple[str, ...]


_JobResult = tuple[tuple[RunRow, ...], tuple[StatsSnapshot, ...]]


def _run_job(payload: tuple[Job, bool, str | None]) -> _JobResult:
    """Build one job's instance and run its policies (pool entry point)."""
    job, collect, cache_dir = payload
    config = job.spec.config
    inst = build_instance(job.spec, job.topology)
    store = None if cache_dir is None else PlanArtifactStore(cache_dir)
    log.debug("cell topology %d/%d (seed %d)", job.topology + 1,
              config.n_topologies, topology_seed(config, job.topology))
    rows, snaps = [], []
    for algorithm in job.policies:
        row, o = run_policy(inst, algorithm, store)
        rows.append(row)
        if collect:
            snaps.append(o.snapshot())
    return tuple(rows), tuple(snaps)


def fold_metrics(rows: Sequence[RunRow]) -> dict[str, float | None]:
    """Fold one (spec, policy) cell's per-topology rows into the
    :data:`METRIC_KEYS` columns (a scorecard cell)."""
    reps = len(rows)
    durs = [d for row in rows for d in row.replan_durs]
    tour_slots = sum(row.tour_slots for row in rows)
    active = sum(row.active_tours for row in rows)
    hits = sum(row.cache_hits for row in rows)
    lookups = hits + sum(row.cache_misses for row in rows)
    return {
        "service_cost": sum(row.cost for row in rows) / reps,
        "deaths": float(sum(row.deaths for row in rows)),
        "dispatches": sum(row.dispatches for row in rows) / reps,
        "charger_utilization": (active / tour_slots) if tour_slots else 0.0,
        "energy_delivered": sum(row.energy for row in rows) / reps,
        "replan_count": len(durs) / reps,
        "replan_latency_p50_ms": 1e3 * percentile(durs, 50) if durs else None,
        "replan_latency_p99_ms": 1e3 * percentile(durs, 99) if durs else None,
        "cache_hit_rate": (hits / lookups) if lookups else None,
    }


@dataclass(frozen=True)
class ResultTable:
    """Every run of one executor call: per-topology rows keyed by
    ``(spec, policy)``.

    ``specs`` keeps the call's order; ``rows[spec, policy]`` holds one
    :class:`RunRow` per topology, in topology order. Both renderings read
    it: a figure panel takes its points' :meth:`column` s, the scorecard
    folds each cell with :meth:`metrics`.
    """

    specs: tuple[ScenarioSpec, ...]
    rows: Mapping[tuple[ScenarioSpec, str], tuple[RunRow, ...]]

    def runs(self, spec: ScenarioSpec, policy: str) -> tuple[RunRow, ...]:
        try:
            return self.rows[spec, policy]
        except KeyError:
            raise KeyError(f"policy {policy!r} did not run on "
                           f"{spec.name!r}") from None

    def column(self, spec: ScenarioSpec, policy: str,
               field: str) -> np.ndarray:
        """One numeric :class:`RunRow` field across the spec's topologies:
        float64 for ``cost`` and ``energy``, int64 for the counts."""
        return np.asarray(
            [getattr(row, field) for row in self.runs(spec, policy)],
            dtype=np.float64 if field in ("cost", "energy") else np.int64)

    def metrics(self, spec: ScenarioSpec,
                policy: str) -> dict[str, float | None]:
        """The cell's :func:`fold_metrics`."""
        return fold_metrics(self.runs(spec, policy))


def run_table(specs: Sequence[ScenarioSpec],
              policies: Sequence[Sequence[str]] | None = None, *,
              jobs: int = 1, obs: Instrumentation | None = None,
              cache_dir: str | None = None,
              on_done: Callable[[int, ScenarioSpec, int], None] | None = None,
              ) -> ResultTable:
    """Run each spec's policies on each of its topologies: one job per
    (spec, topology), every job in one executor call.

    ``policies[i]`` are the algorithms of ``specs[i]`` (default: each
    spec's ``config.algorithms``; a repeated name runs once). ``jobs == 1`` loops in-process;
    ``jobs > 1`` maps the jobs over one ``ProcessPoolExecutor``, with
    bit-identical rows. ``obs``, when collecting, receives every policy
    run's instrumentation in (job, policy) order. ``cache_dir`` names an
    on-disk :class:`~repro.plan.store.PlanArtifactStore` shared by every
    job (multi-process safe, content-addressed: purely an accelerator).
    ``on_done(done, spec, topology)`` fires as each job's rows land, in
    job order.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    specs = tuple(specs)
    if len(set(specs)) != len(specs):
        raise ConfigError("run_table: duplicate spec (its rows would merge)")
    if policies is None:
        policies = [spec.config.algorithms for spec in specs]
    batch = [Job(spec, r, tuple(dict.fromkeys(pols)))
             for spec, pols in zip(specs, policies, strict=True)
             for r in range(spec.config.n_topologies)]
    if cache_dir is not None:
        # Initialise (or validate) the store once, before any worker
        # opens it: concurrent first opens of an empty directory race.
        PlanArtifactStore(cache_dir)
    o = ensure(obs)
    payloads = [(job, o.enabled, cache_dir) for job in batch]
    runs: dict[tuple[ScenarioSpec, str], list[RunRow]] = {}
    with (ProcessPoolExecutor(max_workers=min(jobs, len(batch)))
          if jobs > 1 and len(batch) > 1 else nullcontext()) as pool:
        results = (map(_run_job, payloads) if pool is None
                   else pool.map(_run_job, payloads))
        for done, (job, (job_rows, snaps)) in enumerate(zip(batch, results),
                                                        start=1):
            for snap in snaps:
                o.merge(snap)
            for policy, row in zip(job.policies, job_rows):
                runs.setdefault((job.spec, policy), []).append(row)
            if on_done is not None:
                on_done(done, job.spec, job.topology)
    return ResultTable(specs=specs, rows={key: tuple(rows)
                                          for key, rows in runs.items()})


def run_cell(config: ExperimentConfig,
             obs: Instrumentation | None = None,
             *, jobs: int = 1, cache_dir: str | None = None) -> ResultTable:
    """Run every configured algorithm on every topology of one config.

    The table's one spec (``table.specs[0]``, named ``"cell"``) wraps
    ``config``. Topology ``r`` is derived deterministically from
    ``(config.seed, r)``; its workload realisation is shared across
    algorithms. ``obs`` (optional instrumentation) wraps the whole cell in
    a ``cell`` span and times each algorithm's plan+simulate work under
    ``cell.<algorithm>``; ``jobs`` and ``cache_dir`` are
    :func:`run_table`'s (results are bit-identical for every value).
    """
    with ensure(obs).span("cell", n=config.n, q=config.q,
                          topologies=config.n_topologies, jobs=jobs):
        return run_table([ScenarioSpec("cell", config.describe(), config)],
                         jobs=jobs, obs=obs, cache_dir=cache_dir)
