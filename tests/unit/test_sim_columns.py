"""Column-stored charge and death logs.

The engine logs each dispatch's charges and each drain interval's deaths
as one :class:`~repro.sim.events.EventColumns` batch. These tests hold the
batch and the :class:`~repro.sim.metrics.EventLog` ring to the behaviour of
a plain list of event objects (and of a ``deque(maxlen=N)`` when bounded),
check the column readers against their materialised definitions, and pin
the engine's non-sensor validation.
"""

from collections import deque

import numpy as np
import pytest

from repro.check.simcheck import run_failure_storm
from repro.core.schedule import ChargingScheduling, SchedulePlan
from repro.errors import SimulationError
from repro.sim.engine import SimRuntime, Simulator
from repro.sim.events import ChargeEvent, DeathEvent, EventColumns
from repro.sim.metrics import EventLog, EventSpill, Metrics
from repro.sim.policies import PlannedPolicy
from repro.sim.workload import FixedWorkload
from repro.tsp.tour import Tour


def _charges(t, sensors, before):
    return EventColumns(ChargeEvent, time=t, sensor=np.asarray(sensors, dtype=np.intp),
                        energy_before=np.asarray(before, dtype=np.float64))


class TestEventColumns:
    def test_rows_materialise_as_python_records(self):
        batch = _charges(2.5, [3, 1], [0.25, 0.0])
        rows = batch[:]
        assert rows == [ChargeEvent(time=2.5, sensor=3, energy_before=0.25),
                        ChargeEvent(time=2.5, sensor=1, energy_before=0.0)]
        assert all(type(ev.sensor) is int and type(ev.energy_before) is float
                   for ev in rows)
        assert batch[1] == rows[1] and batch[-1] == rows[1]
        assert type(batch[0].sensor) is int
        assert batch[1:] == rows[1:]
        assert len(batch) == 2

    def test_column_reads_and_broadcasts(self):
        batch = _charges(2.5, [3, 1], [0.25, 0.0])
        np.testing.assert_array_equal(batch.column("sensor"), [3, 1])
        np.testing.assert_array_equal(batch.column("time"), [2.5, 2.5])

    def test_rejects_missing_fields_and_ragged_columns(self):
        with pytest.raises(TypeError):
            EventColumns(DeathEvent, time=np.zeros(2))
        with pytest.raises(ValueError):
            EventColumns(DeathEvent, time=np.zeros(2), sensor=np.zeros(3, np.intp))


def _random_log_ops(rng, n_ops):
    """A random mix of single appends and batches (some empty)."""
    ops, t = [], 0.0
    for _ in range(n_ops):
        t += 1.0
        if rng.random() < 0.4:
            ops.append(ChargeEvent(time=t, sensor=int(rng.integers(9)),
                                   energy_before=float(rng.random())))
        else:
            k = int(rng.integers(0, 7))
            ops.append(_charges(t, rng.integers(9, size=k), rng.random(k)))
    return ops


def _feed(log, ops):
    for op in ops:
        (log.extend if isinstance(op, EventColumns) else log.append)(op)


def _flatten(ops):
    out = []
    for op in ops:
        out.extend(op[:] if isinstance(op, EventColumns) else [op])
    return out


class TestEventLogChunks:
    @pytest.mark.parametrize("maxlen", [None, 0, 1, 3, 5, 16, 1000])
    def test_matches_list_and_deque_reference(self, maxlen):
        rng = np.random.default_rng(maxlen or 7)
        ops = _random_log_ops(rng, 60)
        log = EventLog(maxlen=maxlen, name="charges")
        _feed(log, ops)
        events = _flatten(ops)
        want = list(deque(events, maxlen=maxlen))
        assert list(log) == want and log == want
        assert len(log) == len(want) and bool(log) == bool(want)
        assert log.total == len(events)
        assert log.dropped == len(events) - len(want)
        assert [log[i] for i in range(len(want))] == want
        assert [log[-i] for i in range(1, len(want) + 1)] == want[::-1]
        assert log[1:4] == want[1:4]
        for name in ("time", "sensor", "energy_before"):
            np.testing.assert_array_equal(
                log.column(name), np.asarray([getattr(ev, name) for ev in want]))
        with pytest.raises(IndexError):
            log[len(want)]

    def test_ring_holds_at_most_one_chunk_beyond_the_bound(self):
        log = EventLog(maxlen=8)
        for t in range(50):
            log.extend(_charges(float(t), [0, 1, 2, 3, 4], np.zeros(5)))
            assert len(log) == min(5 * (t + 1), 8)
            assert log._held <= 8 + 5  # the memory promise: one chunk beyond

    def test_spill_bytes_equal_per_event_appends(self, tmp_path):
        ops = _random_log_ops(np.random.default_rng(3), 40)
        with EventSpill(tmp_path / "chunked.jsonl") as spill:
            _feed(EventLog(maxlen=4, spill=spill, name="charges"), ops)
        with EventSpill(tmp_path / "single.jsonl") as spill:
            log = EventLog(maxlen=4, spill=spill, name="charges")
            for ev in _flatten(ops):
                log.append(ev)
        assert ((tmp_path / "chunked.jsonl").read_bytes()
                == (tmp_path / "single.jsonl").read_bytes())


class TestMetricsColumnReaders:
    @pytest.mark.parametrize("bound", [None, 64])
    def test_closest_call_and_counts_match_materialised(self, bound):
        m = run_failure_storm(0, max_log_events=bound).metrics
        charges = list(m.charges)
        lowest = min(ev.energy_before for ev in charges)
        # The storm revives dead sensors, so the minimum (0.0) is tied and
        # the first-minimum rule is exercised.
        assert sum(ev.energy_before == lowest for ev in charges) > 1
        assert m.closest_call() is not None
        assert m.closest_call() == min(charges, key=lambda ev: ev.energy_before)
        want = np.zeros(24, dtype=np.int64)
        for ev in charges:
            want[ev.sensor] += 1
        got = m.charges_per_sensor(24)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        if bound is not None:
            assert m.charges.dropped > 0 and len(charges) == bound

    def test_empty_log(self):
        m = Metrics(q=1)
        assert m.closest_call() is None
        np.testing.assert_array_equal(m.charges_per_sensor(3), [0, 0, 0])


class TestNonSensorValidation:
    """A scheduling that charges a depot is rejected before it mutates
    anything, whether or not some sensor is offline."""

    @pytest.mark.parametrize("offline", [None, 3])
    def test_charging_a_depot_raises_without_side_effects(self, tiny_network, offline):
        net = tiny_network
        n = net.n
        assert net.q == 2
        sim = Simulator(net)
        idle = PlannedPolicy(SchedulePlan(horizon=10.0))
        rt = SimRuntime(sim, idle, FixedWorkload.from_network(net), 10.0,
                        Metrics.create(net.q))
        rt.state.drain(net.rates, 0.5, 0.0)
        if offline is not None:
            rt.set_sensor_online(offline, False)
        energy = rt.state.energy.copy()
        per_charger = rt.metrics.per_charger.copy()
        # Depot n's tour visits sensor 0 and then depot n + 1.
        sched = ChargingScheduling(time=0.5, tours=(Tour(depot=n, order=(n, 0, n + 1)),))
        with pytest.raises(SimulationError, match=f"non-sensor node {n + 1}"):
            rt.execute(sched)
        np.testing.assert_array_equal(rt.state.energy, energy)
        m = rt.metrics
        assert (m.service_cost, m.energy_delivered) == (0.0, 0.0)
        np.testing.assert_array_equal(m.per_charger, per_charger)
        assert m.n_charges == m.n_dispatches == 0
