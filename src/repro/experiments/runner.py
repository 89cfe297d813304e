"""The run executor: topology jobs x policies -> typed rows -> aggregates.

One **job** is one topology of one config: :func:`build_instance` turns
``(config, r, battery_range)`` into the topology's network, workload and
dynamic-event history, then every policy of the job runs against that one
instance — the same network, workload realisation and event replay for
all of them (common random numbers), so per-cell cost ratios are paired
comparisons rather than noise against noise, the variance-reduction trick
behind the paper's smooth curves at only 100 repetitions.

Each policy run (:func:`run_policy`) gets a fresh
:class:`~repro.plan.cache.PlanArtifactCache` and a private
:class:`~repro.obs.instrument.Instrumentation` context and returns one
:class:`RunRow`; a cell's results therefore never depend on which other
policies ran before it. :func:`execute` runs a batch of jobs in-process
(``workers == 1``) or maps them over one ``ProcessPoolExecutor``. Jobs are
pure in ``(config, r)``, so both modes return bit-identical rows, always in
job order; when the caller is collecting, each policy run's snapshot is
merged into its context in (job, policy) order.

The consumers are folds over those rows: :func:`run_cell` here,
:func:`~repro.experiments.sweeps.sweep` (every point of a sweep in one
executor call) and :func:`~repro.scenarios.score.score_suite`.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.adaptive.mintotal_var import MinTotalDistanceVarPolicy
from repro.baselines.greedy import GreedyOnDemandPolicy
from repro.baselines.naive import NaiveChargeAllPolicy
from repro.baselines.periodic import periodic_per_sensor_plan
from repro.core.mintotal import min_total_distance
from repro.errors import ConfigError
from repro.experiments.config import ExperimentConfig
from repro.network.builder import build_paper_network
from repro.network.model import SensorNetwork
from repro.obs.instrument import Instrumentation, StatsSnapshot, ensure
from repro.obs.log import get_logger
from repro.plan.cache import PlanArtifactCache
from repro.plan.store import PlanArtifactStore
from repro.sim.engine import simulate
from repro.sim.policies import ChargingPolicy, PlannedPolicy
from repro.sim.workload import FixedWorkload, ResampledWorkload, Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.sources import ScenarioDynamics

__all__ = ["AlgorithmResult", "CellResult", "Instance", "Job", "RunRow",
           "build_instance", "execute", "make_policy", "run_cell",
           "run_policy", "topology_seed"]

log = get_logger(__name__)

#: Spawn key for the battery-heterogeneity stream — distinct from the
#: deployment/depot/cycle substreams spawned inside the network builder.
_BATTERY_SPAWN_KEY = (101,)


@dataclass(frozen=True)
class AlgorithmResult:
    """Aggregate of one algorithm over all topologies of a cell.

    Parameters
    ----------
    algorithm:
        Algorithm name.
    costs:
        ``(n_topologies,)`` service costs, one per topology.
    deaths:
        ``(n_topologies,)`` death counts (all zeros for a correct run).
    dispatches:
        ``(n_topologies,)`` executed scheduling counts.
    """

    algorithm: str
    costs: np.ndarray
    deaths: np.ndarray
    dispatches: np.ndarray

    @property
    def mean_cost(self) -> float:
        return float(self.costs.mean())

    @property
    def std_cost(self) -> float:
        return float(self.costs.std(ddof=1)) if self.costs.size > 1 else 0.0

    @property
    def total_deaths(self) -> int:
        return int(self.deaths.sum())


@dataclass(frozen=True)
class CellResult:
    """All algorithms' aggregates for one cell.

    ``results`` preserves the config's algorithm order."""

    config: ExperimentConfig
    results: tuple[AlgorithmResult, ...]

    @classmethod
    def from_rows(cls, config: ExperimentConfig,
                  per_topology: Sequence[tuple[RunRow, ...]]) -> CellResult:
        """Fold the executor's rows (one tuple per topology, in config
        algorithm order) into per-algorithm arrays."""
        return cls(config=config, results=tuple(
            AlgorithmResult(
                algorithm=name,
                costs=np.asarray([rows[i].cost for rows in per_topology],
                                 dtype=np.float64),
                deaths=np.asarray([rows[i].deaths for rows in per_topology],
                                  dtype=np.int64),
                dispatches=np.asarray(
                    [rows[i].dispatches for rows in per_topology],
                    dtype=np.int64))
            for i, name in enumerate(config.algorithms)))

    @cached_property
    def _by_name(self) -> dict[str, AlgorithmResult]:
        return {r.algorithm: r for r in self.results}

    def by_name(self, algorithm: str) -> AlgorithmResult:
        try:
            return self._by_name[algorithm]
        except KeyError:
            raise KeyError(f"algorithm {algorithm!r} not in cell "
                           f"(have {[r.algorithm for r in self.results]})") from None

    def ratio(self, num: str, den: str) -> float:
        """Mean-cost ratio between two algorithms (e.g. MTD / Greedy)."""
        d = self.by_name(den).mean_cost
        return self.by_name(num).mean_cost / d if d > 0 else math.inf

    def ratio_ci(self, num: str, den: str):
        """Paired 95% confidence interval for the per-topology cost ratio
        (valid because all algorithms share topologies and workloads)."""
        from repro.experiments.stats import paired_ratio_ci

        return paired_ratio_ci(self.by_name(num).costs, self.by_name(den).costs)

    def cost_ci(self, algorithm: str):
        """95% t-interval for an algorithm's mean service cost."""
        from repro.experiments.stats import mean_ci

        return mean_ci(self.by_name(algorithm).costs)


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
        return MinTotalDistanceVarPolicy(
            refine=refine, cache=cache if cache is not None else True,
            instrumentation=obs)
    if base == "mtd-var-defer":
        return MinTotalDistanceVarPolicy(
            refine=refine, patch_tie_break="defer",
            cache=cache if cache is not None else True, instrumentation=obs)
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


def build_instance(config: ExperimentConfig, r: int = 0,
                   battery_range: tuple[float, float] | None = None) -> Instance:
    """Materialise topology ``r`` of ``config`` (pure in its arguments).

    With ``battery_range = (lo, hi)`` the unit batteries are replaced by
    capacities drawn uniformly from it, seeded from the topology's child
    seed under a dedicated spawn key. Only the batteries column changes,
    so the copy shares its homogeneous twin's geometry fingerprint (and so
    every cached tour).
    """
    topo_seed = topology_seed(config, r)
    network = build_paper_network(
        n=config.n, q=config.q, distribution=config.make_distribution(),
        seed=topo_seed, side=config.side, deployment=config.deployment)
    if battery_range is not None:
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=topo_seed, spawn_key=_BATTERY_SPAWN_KEY))
        network = network.with_batteries(
            rng.uniform(*battery_range, size=network.n))
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
    """One topology of one config, and the algorithms to run on it."""

    config: ExperimentConfig
    topology: int
    policies: tuple[str, ...]
    battery_range: tuple[float, float] | None = None


_JobResult = tuple[tuple[RunRow, ...], tuple[StatsSnapshot, ...]]


def _run_job(payload: tuple[Job, bool, str | None]) -> _JobResult:
    """Build one job's instance and run its policies (pool entry point)."""
    job, collect, cache_dir = payload
    inst = build_instance(job.config, job.topology, job.battery_range)
    store = None if cache_dir is None else PlanArtifactStore(cache_dir)
    log.debug("cell topology %d/%d (seed %d)", job.topology + 1,
              job.config.n_topologies, topology_seed(job.config, job.topology))
    rows, snaps = [], []
    for algorithm in job.policies:
        row, o = run_policy(inst, algorithm, store)
        rows.append(row)
        if collect:
            snaps.append(o.snapshot())
    return tuple(rows), tuple(snaps)


def execute(jobs: Sequence[Job], *, workers: int = 1,
            obs: Instrumentation | None = None,
            cache_dir: str | None = None,
            on_done: Callable[[int], None] | None = None,
            ) -> list[tuple[RunRow, ...]]:
    """Run every job; returns one row tuple per job, in job order.

    ``workers == 1`` loops in-process; ``workers > 1`` maps the jobs over
    one ``ProcessPoolExecutor``, with bit-identical rows. ``obs``, when
    collecting, receives every policy run's instrumentation in (job,
    policy) order. ``cache_dir`` names an on-disk
    :class:`~repro.plan.store.PlanArtifactStore` shared by every job
    (multi-process safe, content-addressed: purely an accelerator).
    ``on_done(index)`` fires as each job's rows land, in job order.
    """
    if workers < 1:
        raise ConfigError(f"jobs must be >= 1, got {workers}")
    if cache_dir is not None:
        # Initialise (or validate) the store once, before any worker
        # opens it: concurrent first opens of an empty directory race.
        PlanArtifactStore(cache_dir)
    o = ensure(obs)
    payloads = [(job, o.enabled, cache_dir) for job in jobs]
    out: list[tuple[RunRow, ...]] = []
    with (ProcessPoolExecutor(max_workers=min(workers, len(jobs)))
          if workers > 1 and len(jobs) > 1 else nullcontext()) as pool:
        for rows, snaps in (map(_run_job, payloads) if pool is None
                            else pool.map(_run_job, payloads)):
            for snap in snaps:
                o.merge(snap)
            out.append(rows)
            if on_done is not None:
                on_done(len(out) - 1)
    return out


def run_cell(config: ExperimentConfig,
             obs: Instrumentation | None = None,
             *, jobs: int = 1, cache_dir: str | None = None) -> CellResult:
    """Run every configured algorithm on every topology of the cell.

    Topology ``r`` is derived deterministically from ``(config.seed, r)``;
    its workload realisation is shared across algorithms. ``obs``
    (optional instrumentation) wraps the whole cell in a ``cell`` span and
    times each algorithm's plan+simulate work under ``cell.<algorithm>``.

    Parameters
    ----------
    config:
        The cell definition.
    obs:
        Optional instrumentation context.
    jobs:
        Worker processes. ``1`` (default) runs in-process; ``N > 1`` fans
        the topology jobs out on a ``ProcessPoolExecutor``. Results are
        bit-identical to the serial path regardless of ``jobs``.
    cache_dir:
        Optional on-disk :class:`~repro.plan.store.PlanArtifactStore`
        directory shared by every topology job. Purely an accelerator:
        results stay bit-identical with or without it.
    """
    with ensure(obs).span("cell", n=config.n, q=config.q,
                          topologies=config.n_topologies, jobs=jobs):
        rows = execute([Job(config, r, config.algorithms)
                        for r in range(config.n_topologies)],
                       workers=jobs, obs=obs, cache_dir=cache_dir)
    return CellResult.from_rows(config, rows)
