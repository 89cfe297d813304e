"""Unit tests for :mod:`repro.obs` — counters, spans, traces, logging."""

import json
import logging

import numpy as np
import pytest

from repro.obs import (
    NULL,
    Instrumentation,
    NullInstrumentation,
    RunningStat,
    StatsSnapshot,
    TraceEvent,
    configure_logging,
    ensure,
    get_logger,
    read_jsonl,
    write_jsonl,
)


class TestRunningStat:
    def test_empty(self):
        s = RunningStat()
        assert s.count == 0
        assert s.total == 0.0
        assert s.mean == 0.0

    def test_accumulates(self):
        s = RunningStat()
        for v in (1.0, 3.0, 2.0):
            s.add(v)
        assert s.count == 3
        assert s.total == 6.0
        assert s.mean == 2.0
        assert s.vmin == 1.0
        assert s.vmax == 3.0


class TestCounters:
    def test_incr_creates_and_accumulates(self):
        obs = Instrumentation()
        obs.incr("x")
        obs.incr("x", 2.5)
        assert obs.counters["x"] == 3.5

    def test_observe_series(self):
        obs = Instrumentation()
        obs.observe("len", 10.0)
        obs.observe("len", 30.0)
        stat = obs.series["len"]
        assert stat.count == 2
        assert stat.mean == 20.0
        obs.observe("len", 5.0, count=2)  # two equal samples at once
        assert (stat.count, stat.total, stat.vmin, stat.vmax) == (4, 50.0, 5.0, 30.0)
        assert obs.gauges["len"] == 5.0

    def test_observe_accepts_numpy_scalars(self):
        obs = Instrumentation()
        obs.observe("v", np.float64(1.5))
        obs.incr("c", np.int64(3))
        assert obs.counters["c"] == 3.0
        assert obs.series["v"].total == 1.5


class TestSpans:
    def test_span_records_timer_and_event(self):
        obs = Instrumentation()
        with obs.span("work", n=7):
            pass
        assert obs.timers["work"].count == 1
        assert obs.timers["work"].total >= 0.0
        (ev,) = obs.spans("work")
        assert ev.kind == "span"
        assert ev.attrs["n"] == 7
        assert ev.dur is not None and ev.dur >= 0.0

    def test_span_set_attaches_attrs(self):
        obs = Instrumentation()
        with obs.span("work") as sp:
            sp.set(result=3)
        assert obs.spans("work")[0].attrs["result"] == 3

    def test_span_records_on_exception(self):
        obs = Instrumentation()
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("x")
        assert obs.timers["boom"].count == 1

    def test_spans_filter_by_name(self):
        obs = Instrumentation()
        with obs.span("a"):
            pass
        with obs.span("b"):
            pass
        obs.event("c")
        assert len(obs.spans()) == 2
        assert [e.name for e in obs.spans("b")] == ["b"]

    def test_nested_spans(self):
        obs = Instrumentation()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        # Inner exits first, so it files first.
        assert [e.name for e in obs.spans()] == ["inner", "outer"]


class TestDisabled:
    def test_null_is_disabled_and_silent(self):
        assert NULL.enabled is False
        NULL.incr("x")
        NULL.observe("y", 1.0)
        NULL.event("z")
        with NULL.span("w", k=1) as sp:
            sp.set(done=True)
        assert NULL.counters == {}
        assert NULL.timers == {}
        assert NULL.series == {}
        assert NULL.events == []

    def test_ensure_maps_none_to_null(self):
        assert ensure(None) is NULL
        obs = Instrumentation()
        assert ensure(obs) is obs

    def test_enabled_flag(self):
        assert Instrumentation().enabled is True
        assert NullInstrumentation().enabled is False


class TestSnapshotMerge:
    def _populated(self):
        obs = Instrumentation()
        obs.incr("calls", 2)
        obs.observe("len", 10.0)
        obs.observe("len", 30.0)
        with obs.span("work", n=1):
            pass
        return obs

    def test_running_stat_tuple_round_trip(self):
        s = RunningStat()
        for v in (1.0, 3.0, 2.0):
            s.add(v)
        back = RunningStat.from_tuple(s.as_tuple())
        assert (back.count, back.total, back.vmin, back.vmax) == (3, 6.0, 1.0, 3.0)

    def test_running_stat_merge(self):
        a, b = RunningStat(), RunningStat()
        a.add(1.0)
        a.add(5.0)
        b.add(3.0)
        a.merge(b)
        assert (a.count, a.total, a.vmin, a.vmax) == (3, 9.0, 1.0, 5.0)

    def test_snapshot_is_plain_data(self):
        snap = self._populated().snapshot()
        assert isinstance(snap, StatsSnapshot)
        assert snap.counters == {"calls": 2.0}
        assert snap.series["len"] == (2, 40.0, 10.0, 30.0)
        assert [e.name for e in snap.events] == ["work"]
        import pickle

        assert pickle.loads(pickle.dumps(snap)) == snap

    def test_merge_into_empty_reproduces_source(self):
        src = self._populated()
        dst = Instrumentation()
        dst.merge(src.snapshot())
        assert dst.counters == src.counters
        assert dst.series["len"].mean == src.series["len"].mean
        assert dst.timers["work"].count == 1
        assert [e.name for e in dst.events] == [e.name for e in src.events]

    def test_merge_accumulates(self):
        dst = self._populated()
        dst.merge(self._populated().snapshot())
        assert dst.counters["calls"] == 4.0
        assert dst.series["len"].count == 4
        assert dst.timers["work"].count == 2
        assert len(dst.events) == 2

    def test_snapshot_is_a_copy(self):
        obs = self._populated()
        snap = obs.snapshot()
        obs.incr("calls")
        assert snap.counters == {"calls": 2.0}  # unaffected by later incrs

    def test_null_merge_is_noop(self):
        NULL.merge(self._populated().snapshot())
        assert NULL.counters == {}


class TestTrace:
    def test_jsonl_round_trip(self, tmp_path):
        events = [
            TraceEvent(name="a", kind="span", t=0.5, dur=0.25, attrs={"n": 3}),
            TraceEvent(name="b", kind="event", t=1.0, attrs={"why": "test"}),
        ]
        path = write_jsonl(events, tmp_path / "trace.jsonl")
        back = read_jsonl(path)
        assert back == events

    def test_jsonl_coerces_numpy(self, tmp_path):
        ev = TraceEvent(name="a", kind="event", t=0.0,
                        attrs={"x": np.float64(2.5), "n": np.int64(4)})
        path = write_jsonl([ev], tmp_path / "t.jsonl")
        lines = path.read_text().strip().splitlines()
        rec = json.loads(lines[0])
        assert rec["attrs"] == {"x": 2.5, "n": 4}

    def test_write_trace_method(self, tmp_path):
        obs = Instrumentation()
        with obs.span("s"):
            pass
        obs.event("e", note="hi")
        path = obs.write_trace(tmp_path / "out.jsonl")
        back = read_jsonl(path)
        assert [e.name for e in back] == ["s", "e"]


class TestStatsTable:
    def test_contains_all_sections(self):
        obs = Instrumentation()
        obs.incr("plan.calls", 2)
        obs.observe("plan.tour_length", 123.0)
        with obs.span("plan"):
            pass
        text = obs.stats_table()
        assert "instrumentation" in text
        assert "plan.calls" in text
        assert "plan.tour_length" in text
        assert "plan" in text

    def test_empty_context_renders_placeholder(self):
        text = Instrumentation().stats_table()
        assert text.strip()  # never empty / never raises


class TestLogging:
    def test_get_logger_namespacing(self):
        assert get_logger("repro.sim.engine").name == "repro.sim.engine"
        assert get_logger("sim.engine").name == "repro.sim.engine"

    def test_configure_logging_levels(self):
        root = configure_logging(0)
        assert root.level == logging.INFO
        root = configure_logging(1)
        assert root.level == logging.DEBUG

    def test_configure_logging_idempotent(self):
        configure_logging(0)
        configure_logging(0)
        root = logging.getLogger("repro")
        marked = [h for h in root.handlers
                  if getattr(h, "_repro_cli_handler", False)]
        assert len(marked) == 1
