"""Integration tests: the instrumentation context threaded end to end.

The contracts a profiling run relies on: one ``dispatch`` span per executed
scheduling, one ``plan.tour_length`` sample per planned scheduling, per-cell
timing from the experiment runner, and a CLI ``--profile --trace`` round
trip.
"""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.mintotal import min_total_distance
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_cell
from repro.network.builder import build_paper_network
from repro.network.cycles import LinearCycleDistribution
from repro.obs import Instrumentation
from repro.sim.engine import simulate
from repro.sim.policies import PlannedPolicy
from repro.sim.workload import FixedWorkload


@pytest.fixture
def small_net():
    return build_paper_network(
        n=25, q=2, distribution=LinearCycleDistribution(tau_min=2.0, tau_max=10.0),
        seed=11)


class TestSimulateSpans:
    def test_one_dispatch_span_per_executed_scheduling(self, small_net):
        obs = Instrumentation()
        result = min_total_distance(small_net, 30.0, obs=obs)
        out = simulate(small_net, PlannedPolicy(result.plan),
                       FixedWorkload.from_network(small_net), 30.0,
                       instrumentation=obs)
        assert out.metrics.n_dispatches > 0
        assert len(obs.spans("dispatch")) == out.metrics.n_dispatches
        assert len(obs.spans("simulate")) == 1
        assert obs.counters["sim.events"] > 0

    def test_dispatch_span_costs_sum_to_service_cost(self, small_net):
        obs = Instrumentation()
        result = min_total_distance(small_net, 30.0, obs=obs)
        out = simulate(small_net, PlannedPolicy(result.plan),
                       FixedWorkload.from_network(small_net), 30.0,
                       instrumentation=obs)
        total = sum(e.attrs["cost"] for e in obs.spans("dispatch"))
        assert total == pytest.approx(out.metrics.service_cost)


class TestPlanObservations:
    def test_tour_length_sample_per_scheduling(self, small_net):
        obs = Instrumentation()
        result = min_total_distance(small_net, 30.0, obs=obs)
        assert obs.series["plan.tour_length"].count == len(result.plan)
        assert obs.counters["plan.schedulings"] == len(result.plan)
        assert len(obs.spans("plan")) == 1
        assert len(obs.spans("plan.block")) == 1

    def test_tour_length_series_matches_each_dispatch(self, small_net):
        # One weighted sample per table entry reads as one per dispatch.
        obs = Instrumentation()
        plan = min_total_distance(small_net, 30.0, obs=obs).plan
        costs = [sum(t.cost(coords=small_net.coordinates) for t in s.tours)
                 for s in plan]
        stat = obs.series["plan.tour_length"]
        assert (stat.count, stat.vmin, stat.vmax) == (len(costs), min(costs), max(costs))
        assert stat.total == pytest.approx(sum(costs))
        assert obs.gauges["plan.tour_length"] == costs[-1]

    def test_defaults_without_instrumentation(self, small_net):
        # Every public entry point stays callable with no obs argument.
        result = min_total_distance(small_net, 30.0)
        out = simulate(small_net, PlannedPolicy(result.plan),
                       FixedWorkload.from_network(small_net), 30.0)
        assert out.metrics.perpetual


class TestRunnerSpans:
    def test_cell_and_per_algorithm_timers(self):
        obs = Instrumentation()
        cfg = ExperimentConfig(n=20, q=2, n_topologies=2,
                               horizon=30.0, tau_min=2.0, tau_max=10.0,
                               algorithms=("mtd", "greedy"))
        run_cell(cfg, obs=obs)
        assert obs.timers["cell"].count == 1
        assert obs.timers["cell.mtd"].count == 2   # one per topology
        assert obs.timers["cell.greedy"].count == 2
        assert obs.timers["simulate"].count == 4   # 2 algorithms x 2 topologies


class TestCliProfile:
    def test_parser_accepts_flags(self):
        args = build_parser().parse_args(
            ["-v", "--profile", "--trace", "t.jsonl", "list"])
        assert args.verbose == 1
        assert args.profile
        assert args.trace == "t.jsonl"

    def test_profile_and_trace_on_plan(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        rc = main(["--profile", "--trace", str(trace), "plan",
                   "--n", "20", "--q", "2", "--horizon", "50",
                   "--network-out", str(tmp_path / "net.json"),
                   "--plan-out", str(tmp_path / "plan.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "instrumentation" in out
        assert "plan.tour_length" in out
        assert trace.exists()
        records = [json.loads(line)
                   for line in trace.read_text().splitlines() if line]
        assert any(r["name"] == "plan" and r["kind"] == "span"
                   for r in records)

    def test_verbose_flag_runs(self, tmp_path, capsys):
        rc = main(["-v", "plan", "--n", "15", "--q", "2", "--horizon", "40",
                   "--network-out", str(tmp_path / "n.json"),
                   "--plan-out", str(tmp_path / "p.json")])
        assert rc == 0
