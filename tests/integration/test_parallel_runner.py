"""Integration: the parallel experiment executor is a pure accelerator.

``run_cell(config, jobs=N)`` fans the per-topology jobs onto a process
pool; the contract is a byte-identical result table versus the serial
path —
same costs, same deaths, same dispatch counts — and instrumentation
counters that merge back to exactly the serial tallies. These tests pin
that contract on tiny cells (the scaling numbers live in
``benchmarks/bench_scaling.py``).
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_cell, topology_seed
from repro.experiments.sweeps import sweep
from repro.obs import Instrumentation

TINY = ExperimentConfig(n=20, horizon=80.0, n_topologies=4, seed=11,
                        algorithms=("mtd", "greedy"))
TINY_VAR = ExperimentConfig(n=20, horizon=80.0, n_topologies=3, seed=11,
                            variable=True, slot_duration=10.0,
                            algorithms=("mtd-var", "greedy"))


def _assert_cells_identical(a, b):
    assert a.specs == b.specs and list(a.rows) == list(b.rows)
    for spec, alg in a.rows:
        # Byte-level equality: the parallel path must not change a single
        # floating-point operation, not merely land within tolerance.
        for field in ("cost", "deaths", "dispatches"):
            assert (a.column(spec, alg, field).tobytes()
                    == b.column(spec, alg, field).tobytes())


class TestParallelDeterminism:
    def test_jobs4_byte_identical_to_serial(self):
        _assert_cells_identical(run_cell(TINY), run_cell(TINY, jobs=4))

    def test_jobs2_variable_cycles(self):
        """The adaptive path (re-plans, resampled workloads, per-policy
        caches) is seed-driven too — still byte-identical."""
        _assert_cells_identical(run_cell(TINY_VAR), run_cell(TINY_VAR, jobs=2))

    def test_more_jobs_than_topologies(self):
        _assert_cells_identical(run_cell(TINY), run_cell(TINY, jobs=16))

    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigError):
            run_cell(TINY, jobs=0)

    def test_topology_seed_is_stable(self):
        # The derivation is part of the determinism contract: every
        # execution mode (and future executor) must agree on it.
        seeds = [topology_seed(TINY, r) for r in range(4)]
        assert len(set(seeds)) == 4
        assert seeds == [topology_seed(TINY, r) for r in range(4)]


class TestMergedInstrumentation:
    def test_counters_match_serial(self):
        serial, parallel = Instrumentation(), Instrumentation()
        run_cell(TINY, obs=serial)
        run_cell(TINY, obs=parallel, jobs=4)
        # Counters are deterministic functions of (config, r): the merged
        # worker snapshots must reproduce the serial tallies exactly.
        assert parallel.counters == serial.counters
        assert parallel.counters["plan.calls"] == TINY.n_topologies

    def test_cache_counters_survive_the_pool(self):
        serial, parallel = Instrumentation(), Instrumentation()
        run_cell(TINY_VAR, obs=serial)
        run_cell(TINY_VAR, obs=parallel, jobs=3)
        assert any(k.startswith("plan.cache.") for k in parallel.counters)
        assert parallel.counters == serial.counters

    def test_timer_counts_and_event_sequence_match(self):
        serial, parallel = Instrumentation(), Instrumentation()
        run_cell(TINY, obs=serial)
        run_cell(TINY, obs=parallel, jobs=2)
        assert set(parallel.timers) == set(serial.timers)
        for name, stat in serial.timers.items():
            assert parallel.timers[name].count == stat.count
        # Workers ship their events back; merged in topology order they
        # replay the serial sequence (durations differ, names do not).
        assert [e.name for e in parallel.events] == [e.name for e in serial.events]

    def test_disabled_obs_collects_nothing(self):
        cell = run_cell(TINY, jobs=2)  # no obs: workers skip collection
        assert all(len(rows) == TINY.n_topologies for rows in cell.rows.values())


class TestParallelSweepAndCli:
    def test_sweep_forwards_jobs(self):
        a = sweep(TINY, "n", [15, 20])
        b = sweep(TINY, "n", [15, 20], jobs=4)
        for alg in ("mtd", "greedy"):
            xa, ya = a.series(alg)
            xb, yb = b.series(alg)
            np.testing.assert_array_equal(xa, xb)
            assert ya.tobytes() == yb.tobytes()

    def test_cli_jobs_flag(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        from repro.experiments import figures as figs

        spec = figs.FIGURES["fig1a"]
        small = dataclasses.replace(spec, values=(20,), values_full=(20,),
                                    base=spec.base.with_(horizon=60.0))
        monkeypatch.setitem(figs.FIGURES, "fig1a", small)
        csv_serial = tmp_path / "serial.csv"
        csv_jobs = tmp_path / "jobs.csv"
        assert main(["run", "fig1a", "--reps", "2", "--quiet",
                     "--csv", str(csv_serial)]) == 0
        assert main(["run", "fig1a", "--reps", "2", "--quiet", "--jobs", "2",
                     "--csv", str(csv_jobs)]) == 0
        capsys.readouterr()
        assert csv_jobs.read_text() == csv_serial.read_text()
