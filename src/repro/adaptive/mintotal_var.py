"""``MinTotalDistance-var``: the online policy for variable cycles.

The full Section VI machinery as a simulator policy:

1. At every slot boundary the policy ingests the monitored rates
   (:class:`~repro.adaptive.predictor.EwmaRatePredictor`), derives estimated
   maximum charging cycles, and passes them through the
   :class:`~repro.adaptive.monitor.VariationMonitor` dead-band.
2. It keeps its current plan while, for every sensor,
   ``tau'_i(t-1) <= tau_hat_i(t) < 2 tau'_i(t-1)`` — the paper's reuse
   window: still feasible and not wastefully frequent — *and* (a
   strengthening this implementation adds) every sensor's residual energy
   reaches its next scheduled charge at the conservative rate
   ``max(predicted, observed)``. The strengthening costs nothing when the
   paper's conditions hold with truthful predictions, and prevents deaths
   when the EWMA lags a sudden rate increase.
3. Otherwise it re-plans: Algorithm 3 from the current instant with the
   updated cycles, then the :func:`~repro.adaptive.patch.build_patch`
   repair splices sensors that cannot wait for their first scheduled
   charge into the earliest schedulings (including an immediate ``C'_0``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.adaptive.monitor import VariationMonitor
from repro.adaptive.patch import build_patch
from repro.adaptive.predictor import EwmaRatePredictor
from repro.core.mintotal import min_total_distance
from repro.core.schedule import SchedulePlan
from repro.errors import ConfigError
from repro.network.model import SensorNetwork
from repro.obs.instrument import Instrumentation, ensure
from repro.obs.log import get_logger
from repro.plan.cache import PlanArtifactCache
from repro.sim.policies import PlannedPolicy, SimulationView

__all__ = ["MinTotalDistanceVarPolicy"]

_TOL = 1e-9

log = get_logger(__name__)


class MinTotalDistanceVarPolicy(PlannedPolicy):
    """Adaptive multi-charger scheduling under variable charging cycles.

    Parameters
    ----------
    gamma:
        EWMA recency weight (Section VI.A). Default 1.0: within the paper's
        slotted model the measured rate *is* the rate until the next
        boundary, so full recency is the accurate choice; use < 1 to smooth
        noisy telemetry.
    report_threshold:
        Relative dead-band of the sensor-side variation monitor (0 reports
        every change).
    refine:
        Forward 2-opt refinement to all tour constructions.
    patch_tie_break:
        Forwarded to :func:`repro.adaptive.patch.build_patch`.
        ``"immediate"`` (default) is paper-faithful — it reproduces the
        reported near-parity with Greedy under extreme instability
        (Fig. 5, ``ΔT = 1``). ``"defer"`` is this library's improvement:
        measurably cheaper under instability with identical safety (the
        ``abl-tiebreak`` bench quantifies it).
    cache:
        Plan-artifact reuse across re-plans. ``None`` (default) gives the
        policy a private :class:`~repro.plan.cache.PlanArtifactCache`,
        created fresh at every :meth:`reset`: successive re-plans over the
        same fixed geometry then skip Algorithms 1–2 for every coverage set
        already solved (the replanned plans are tour-for-tour identical to
        the uncached ones — caching is a pure accelerator). Passing a
        :class:`PlanArtifactCache` instance shares it across
        resets/policies (keys carry the geometry fingerprint, so
        cross-topology sharing is safe).
    instrumentation:
        Optional :class:`~repro.obs.instrument.Instrumentation` context.
        Each rebuild runs under a ``replan`` span; triggers are classified
        into ``replan.trigger.shrunk`` / ``.doubled`` / ``.survival``
        counters (plus a ``replan.trigger`` trace event) and kept-plan
        checks count as ``replan.keep``. Forwarded to Algorithm 3 and the
        patch step. ``None`` (the default) is a strict no-op.

    Attributes
    ----------
    n_replans:
        How many times the policy rebuilt its plan (diagnostics; the
        ``fig5`` bench correlates this with workload stability).
    plan:
        The active plan, ``C'_0`` and patched slots included.
    """

    def __init__(self, *, gamma: float = 1.0, report_threshold: float = 0.0,
                 refine: bool = False, patch_tie_break: str = "immediate",
                 cache: PlanArtifactCache | None = None,
                 instrumentation: Instrumentation | None = None) -> None:
        if patch_tie_break not in ("defer", "immediate"):
            raise ConfigError(
                f"patch_tie_break must be 'defer' or 'immediate', got {patch_tie_break!r}")
        self._obs = ensure(instrumentation)
        self.gamma = gamma
        self.report_threshold = report_threshold
        self.refine = refine
        self.patch_tie_break = patch_tie_break
        self._shared_cache = cache
        self._cache = cache
        self.n_replans = 0
        self._net: SensorNetwork | None = None
        self._horizon = math.inf
        self._pred = EwmaRatePredictor(gamma)
        self._monitor = VariationMonitor(report_threshold)
        # Current plan state; reset installs an empty plan over the horizon.
        self._plan: SchedulePlan | None = None
        self._cursor = 0
        self._assigned: np.ndarray | None = None  # tau'_i of the active plan
        self._anchor = 0.0                        # start time of the active plan

    # -------------------------------------------------------------- policy API
    def reset(self, network: SensorNetwork, horizon: float) -> None:
        self._net = network
        self._horizon = horizon
        # A shared cache instance is kept across resets; otherwise a
        # private one per run.
        self._cache = (self._shared_cache if self._shared_cache is not None
                       else PlanArtifactCache())
        self._pred = EwmaRatePredictor(self.gamma)
        self._monitor = VariationMonitor(self.report_threshold)
        self._plan = SchedulePlan(horizon=horizon)
        self._cursor = 0
        self._assigned = None
        self._anchor = 0.0
        self.n_replans = 0

    def observe(self, view: SimulationView) -> None:
        assert self._net is not None, "observe before reset"
        self._pred.update(view.observed_rates)
        tau_hat = self._pred.predicted_cycles(view.batteries)
        reported = self._monitor.update(tau_hat)
        # Safety cap: never *plan* a cycle longer than what the worse of
        # (smoothed, currently measured) rate supports. EWMA smoothing and
        # the report dead-band may then only delay *lengthening* a cycle
        # (harmless: the sensor is charged more often than needed), never
        # shortening it — which is the direction that kills sensors
        # mid-slot, where no observation can save them.
        cons = self._pred.conservative_rates()
        cap = np.divide(view.batteries, cons,
                        out=np.full(view.batteries.shape, np.inf),
                        where=cons > 0)
        reported = np.minimum(reported, cap)
        # Offline (churned-out) sensors observe no consumption at all, so
        # their predicted cycle is infinite — which the quantizer rejects.
        # Plan them at the horizon scale instead: finite, and long enough
        # that the base plan schedules at most one (skipped) visit. When
        # the sensor rejoins, its cycle shrinks and triggers a replan.
        reported = np.where(np.isfinite(reported), reported, self._horizon)

        if self._assigned is None:
            # First observation (t = 0): all sensors are full — plain
            # Algorithm 3, no patch needed.
            self._install_plan(view, reported, initial=True)
            return
        reason = self._replan_reason(view, reported)
        if reason is None:
            self._obs.incr("replan.keep")
            return
        self._obs.incr(f"replan.trigger.{reason}")
        self._obs.event("replan.trigger", reason=reason, time=float(view.time))
        log.debug("replan at t=%.3f (%s)", view.time, reason)
        self._install_plan(view, reported, initial=False)

    # ---------------------------------------------------------------- internals
    def _replan_reason(self, view: SimulationView, reported: np.ndarray) -> str | None:
        """Why the active plan must be rebuilt, or ``None`` if it holds.

        The paper's reuse test plus the conservative survival check;
        classifying the trigger feeds the ``replan.trigger.*`` counters.
        """
        assert self._assigned is not None
        a = self._assigned
        # (paper) infeasible: some cycle shrank below its plan cycle.
        if np.any(reported < a * (1.0 - _TOL)):
            return "shrunk"
        # (paper) wasteful: some cycle at least doubled past its plan cycle.
        if np.any(reported >= 2.0 * a * (1.0 - _TOL)):
            return "doubled"
        # (strengthening) survival to the next scheduled charge.
        deadline = self._next_charge_times(view.time)
        rates = self._pred.conservative_rates()
        lifetimes = np.divide(view.energy, rates,
                              out=np.full(view.energy.shape, np.inf),
                              where=rates > 0)
        if np.any(view.time + lifetimes < deadline * (1.0 - _TOL)):
            return "survival"
        return None

    def _next_charge_times(self, now: float) -> np.ndarray:
        """Per-sensor next *guaranteed* charge under the active base plan.

        The base plan charges sensor ``i`` at ``anchor + m * tau'_i`` for
        every integer ``m >= 1``; patches only ever add earlier charges, so
        this analytic value is a safe (upper-bound) deadline. Charges at or
        beyond the horizon never happen — the deadline is then the horizon
        itself (the sensor only needs to survive to ``T``).
        """
        assert self._assigned is not None
        p = self._assigned
        m = np.maximum(np.ceil((now - self._anchor) / p - _TOL), 1.0)
        nxt = self._anchor + m * p
        # A charge exactly "now" is happening in this very step; the next
        # *future* charge is one period later, but energy-wise the sensor is
        # covered, so keeping nxt = now is safe and simpler.
        return np.minimum(nxt, self._horizon)

    def _install_plan(self, view: SimulationView, cycles: np.ndarray,
                      *, initial: bool) -> None:
        """Run Algorithm 3 from ``view.time``, repair with the patch step,
        and install the result as the active plan: the patch's ``C'_0`` at
        ``view.time`` (if any), then the new plan's dispatches before the
        horizon, each patched slot re-pointed to its grown tour set."""
        assert self._net is not None
        t = view.time
        self._cursor = 0
        if t >= self._horizon - _TOL:
            self._plan = SchedulePlan(horizon=self._horizon)
            return
        with self._obs.span("replan", initial=initial, time=float(t)) as sp:
            result = min_total_distance(self._net, self._horizon, cycles=cycles,
                                        refine=self.refine, start_time=t,
                                        cache=self._cache,
                                        obs=self._obs)
            quant = result.quantization
            base = result.plan
            keep = int(np.count_nonzero(base.times < self._horizon - _TOL))
            tour_sets = list(base.tour_sets)
            times = base.times[:keep]
            refs = base.refs[:keep].copy()

            if not initial:
                rates = self._pred.conservative_rates()
                lifetimes = np.divide(view.energy, rates,
                                      out=np.full(view.energy.shape, np.inf),
                                      where=rates > 0)
                patch = build_patch(self._net, quant, lifetimes, refine=self.refine,
                                    tie_break=self.patch_tie_break,
                                    cache=self._cache,
                                    obs=self._obs)
                for j, tours in patch.tours.items():
                    if 1 <= j <= keep:  # dispatch j is refs[j - 1]
                        refs[j - 1] = len(tour_sets)
                        tour_sets.append(tours)
                if 0 in patch.tours:
                    times = np.concatenate(([t], times))
                    refs = np.concatenate(([len(tour_sets)], refs))
                    tour_sets.append(patch.tours[0])
                self.n_replans += 1

            self._plan = SchedulePlan(horizon=self._horizon, tour_sets=tuple(tour_sets),
                                      times=times, refs=refs)
            sp.set(schedulings=len(self._plan))

        self._assigned = quant.assigned.copy()
        self._anchor = t
