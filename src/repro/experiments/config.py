"""Experiment configuration.

Defaults reproduce the paper's Section VII environment exactly:
1000 m x 1000 m area, base station at the centre, ``q = 5`` depots (first
co-located with the base station), ``T = 1000``, ``tau in [1, 50]``,
``sigma = 2``, ``ΔT = 10``, greedy threshold ``Δl = tau_min``. The paper
averages each point over 100 random topologies; ``n_topologies`` defaults
lower so benches finish in minutes — the CLI exposes the full setting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim imports nothing
    from repro.sim.sources import ScenarioDynamics  # from experiments, but keep lazy)
from repro.network.cycles import (
    CycleDistribution,
    LinearCycleDistribution,
    RandomCycleDistribution,
)

__all__ = ["ExperimentConfig", "ScenarioSpec"]

#: Algorithms the runner knows how to instantiate.
KNOWN_ALGORITHMS = (
    "mtd",          # Algorithm 3 (offline plan), fixed cycles
    "mtd+2opt",     # Algorithm 3 with tour refinement (ablation)
    "mtd-var",        # Section VI adaptive policy (paper-faithful ties)
    "mtd-var+2opt",
    "mtd-var-defer",  # same, with the deferring patch tie-break (improvement)
    "greedy",       # the paper's comparator
    "greedy+2opt",
    "naive",        # charge-everything strawman
    "periodic",     # per-sensor periodic plan without power-of-2 merging
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One evaluation cell.

    Parameters
    ----------
    n, q:
        Network size and charger count.
    side:
        Deployment square side (metres).
    horizon:
        Monitoring period ``T``.
    distribution:
        ``"linear"`` or ``"random"`` (Section VII.A's two models).
    tau_min, tau_max, sigma:
        Cycle-distribution parameters.
    variable:
        False = fixed cycles (Figs. 1–2); True = cycles resampled every
        ``slot_duration`` (Figs. 3–6).
    slot_duration:
        ``ΔT`` for variable workloads.
    algorithms:
        Names from :data:`KNOWN_ALGORITHMS` to run on each topology.
    n_topologies:
        Independent random topologies to average over.
    seed:
        Master seed; topology ``r`` uses child stream ``r``.
    strict:
        Raise on any sensor death instead of recording it.
    quantization_base:
        Geometric base of Algorithm 3's cycle classes (paper: 2; the
        ``abl-base`` ablation sweeps it).
    deployment:
        Sensor layout: ``"uniform"`` (paper), ``"clustered"`` or ``"grid"``
        (the ``abl-deployment`` ablation).
    failure_rate, failure_mttr:
        Charger breakdown dynamics (events per unit time per charger, and
        mean time to repair). ``failure_rate = 0`` (the default) keeps the
        paper's assumption of perfectly reliable chargers.
    churn_rate, churn_downtime:
        Sensor membership churn: leave events per unit time across the
        network, and how long each absent sensor stays offline.
    request_rate:
        Poisson on-demand charging-request arrivals per unit time
        (``0`` = none).
    dynamics_seed:
        Seed for the dynamic event streams. The effective per-topology
        stream is derived from ``(dynamics_seed, topology)`` so repetitions
        see independent failure histories while the whole grid stays a
        pure function of its config.
    """

    n: int = 200
    q: int = 5
    side: float = 1000.0
    horizon: float = 1000.0
    distribution: str = "linear"
    tau_min: float = 1.0
    tau_max: float = 50.0
    sigma: float = 2.0
    variable: bool = False
    slot_duration: float = 10.0
    algorithms: tuple[str, ...] = ("mtd", "greedy")
    n_topologies: int = 5
    seed: int = 2014
    strict: bool = False
    quantization_base: int = 2
    deployment: str = "uniform"
    failure_rate: float = 0.0
    failure_mttr: float = 0.0
    churn_rate: float = 0.0
    churn_downtime: float = 0.0
    request_rate: float = 0.0
    dynamics_seed: int = 0

    def __post_init__(self) -> None:
        if self.n <= 0 or self.q <= 0:
            raise ConfigError(f"n and q must be positive, got n={self.n}, q={self.q}")
        if self.horizon <= 0:
            raise ConfigError(f"horizon must be positive, got {self.horizon}")
        if self.distribution not in ("linear", "random"):
            raise ConfigError(
                f"distribution must be 'linear' or 'random', got {self.distribution!r}")
        if self.tau_min <= 0 or self.tau_max < self.tau_min:
            raise ConfigError(
                f"need 0 < tau_min <= tau_max, got [{self.tau_min}, {self.tau_max}]")
        if self.sigma < 0:
            raise ConfigError(f"sigma must be non-negative, got {self.sigma}")
        if self.slot_duration <= 0:
            raise ConfigError(
                f"slot_duration must be positive, got {self.slot_duration}")
        if self.n_topologies <= 0:
            raise ConfigError(
                f"n_topologies must be positive, got {self.n_topologies}")
        if self.deployment not in ("uniform", "clustered", "grid"):
            raise ConfigError(
                f"deployment must be 'uniform', 'clustered' or 'grid', "
                f"got {self.deployment!r}")
        if (not isinstance(self.quantization_base, int)
                or self.quantization_base < 2):
            raise ConfigError(
                f"quantization_base must be an integer >= 2, "
                f"got {self.quantization_base!r}")
        for name in ("failure_rate", "failure_mttr", "churn_rate",
                     "churn_downtime", "request_rate"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must be non-negative, got {value}")
        if self.failure_rate > 0 and self.failure_mttr <= 0:
            raise ConfigError(
                f"failure_rate > 0 needs a positive failure_mttr, "
                f"got {self.failure_mttr}")
        if self.churn_rate > 0 and self.churn_downtime <= 0:
            raise ConfigError(
                f"churn_rate > 0 needs a positive churn_downtime, "
                f"got {self.churn_downtime}")
        unknown = set(self.algorithms) - set(KNOWN_ALGORITHMS)
        if unknown:
            raise ConfigError(
                f"unknown algorithms {sorted(unknown)}; known: {KNOWN_ALGORITHMS}")
        for alg in self.algorithms:
            if alg.startswith("mtd-var") and not self.variable:
                raise ConfigError(
                    f"{alg} requires a variable workload (set variable=True)")

    def with_(self, **overrides: Any) -> "ExperimentConfig":
        """Functional update (``dataclasses.replace`` with validation)."""
        return replace(self, **overrides)

    def dynamics(self, topology: int = 0) -> "ScenarioDynamics | None":
        """The topology's :class:`~repro.sim.sources.ScenarioDynamics`.

        Returns ``None`` when every dynamic rate is zero (static run — the
        simulator then skips the event sources entirely). The seed mixes
        ``dynamics_seed`` with the topology index through a
        :class:`~numpy.random.SeedSequence` so repetitions draw
        independent event histories.
        """
        from repro.sim.sources import ScenarioDynamics

        dyn = ScenarioDynamics(
            failure_rate=self.failure_rate, failure_mttr=self.failure_mttr,
            churn_rate=self.churn_rate, churn_downtime=self.churn_downtime,
            request_rate=self.request_rate, seed=self.dynamics_seed)
        if not dyn.active:
            return None
        import numpy as np

        mixed = int(np.random.SeedSequence(
            entropy=[self.dynamics_seed, int(topology)]).generate_state(1)[0])
        return dyn.with_seed(mixed)

    def make_distribution(self) -> CycleDistribution:
        """Instantiate the configured cycle distribution."""
        if self.distribution == "linear":
            return LinearCycleDistribution(
                tau_min=self.tau_min, tau_max=self.tau_max, sigma=self.sigma)
        return RandomCycleDistribution(tau_min=self.tau_min, tau_max=self.tau_max)

    def describe(self) -> str:
        """Short label used in tables and logs."""
        mode = f"var(ΔT={self.slot_duration:g})" if self.variable else "fixed"
        parts = [f"n={self.n} q={self.q} {self.distribution} "
                 f"tau=[{self.tau_min:g},{self.tau_max:g}] sigma={self.sigma:g} "
                 f"{mode} T={self.horizon:g} reps={self.n_topologies}"]
        if self.failure_rate > 0:
            parts.append(f"fail={self.failure_rate:g}/mttr={self.failure_mttr:g}")
        if self.churn_rate > 0:
            parts.append(f"churn={self.churn_rate:g}/down={self.churn_downtime:g}")
        if self.request_rate > 0:
            parts.append(f"req={self.request_rate:g}")
        return " ".join(parts)


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, seed-deterministic run target.

    Registered scenarios (:mod:`repro.scenarios`) and the points of a
    figure panel (:meth:`repro.experiments.figures.FigureSpec.points`) are
    both specs; the run executor
    (:func:`~repro.experiments.runner.run_table`) keys its result table by
    them.

    Parameters
    ----------
    name:
        Registry key (kebab-case, e.g. ``"failure-storm"``) or panel id.
    description:
        One line for tables and docs.
    config:
        The :class:`ExperimentConfig` describing topology, workload and
        dynamic-event rates. ``config.algorithms`` are the policies a
        panel runs; the scorer supplies its own from its policy registry.
    battery_range:
        Optional ``(lo, hi)``; when set, per-sensor battery capacities are
        drawn uniformly from it (seeded from the topology's child seed),
        replacing the homogeneous ``B = 1`` default.
    """

    name: str
    description: str
    config: ExperimentConfig
    battery_range: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("ScenarioSpec: name must be non-empty")
        if self.battery_range is not None:
            lo, hi = self.battery_range
            if not (0 < lo <= hi):
                raise ConfigError(
                    f"ScenarioSpec {self.name!r}: battery_range needs "
                    f"0 < lo <= hi, got ({lo}, {hi})")

    def with_overrides(self, **overrides: Any) -> "ScenarioSpec":
        """Copy with ``ExperimentConfig`` fields overridden (suite scaling,
        panel points)."""
        return replace(self, config=self.config.with_(**overrides))
