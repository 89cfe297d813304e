"""Dashboard state folding and panel rendering."""

from __future__ import annotations

from repro.obs.live import WatchFrame
from repro.reporting.dashboard import (
    DashboardState,
    dashboard_svg,
    render_dashboard,
    save_dashboard_svg,
)


def _aggregate(seq, t, counters=None, **kw):
    return WatchFrame(source="fleet", seq=seq, t=t, kind="aggregate",
                      counters=counters or {}, **kw)


class TestDashboardState:
    def test_aggregate_frames_are_the_view(self):
        state = DashboardState()
        state.ingest(_aggregate(1, 100.0, {"fleet.requests": 10.0},
                                shards={"shard-0": "up"}))
        assert state.frame.counters["fleet.requests"] == 10.0
        assert state.n_frames == 1

    def test_delta_frames_fold_through_local_aggregator(self):
        state = DashboardState()
        state.ingest(WatchFrame(source="serve", seq=1, t=100.0,
                                counters={"serve.requests": 5.0}))
        state.ingest(WatchFrame(source="serve", seq=2, t=101.0,
                                counters={"serve.requests": 3.0}))
        assert state.frame.kind == "aggregate"
        assert state.frame.counters["serve.requests"] == 8.0

    def test_rps_from_counter_window(self):
        state = DashboardState()
        state.ingest(_aggregate(1, 100.0, {"fleet.requests": 0.0}))
        state.ingest(_aggregate(2, 102.0, {"fleet.requests": 20.0}))
        assert state.rps() == 10.0
        assert state.rate_history() == [10.0]

    def test_rate_counter_prefers_fleet_then_serve(self):
        state = DashboardState()
        state.ingest(_aggregate(1, 1.0, {"serve.requests": 1.0}))
        assert state.rate_counter() == "serve.requests"
        state.ingest(_aggregate(2, 2.0, {"serve.requests": 1.0,
                                         "fleet.requests": 1.0}))
        assert state.rate_counter() == "fleet.requests"

    def test_events_retained_across_frames(self):
        state = DashboardState()
        state.ingest(_aggregate(1, 1.0, events=[
            {"event": "shard_down", "shard": "shard-1"}]))
        state.ingest(_aggregate(2, 2.0))
        assert any(e["event"] == "shard_down" for e in state.events)


class TestRender:
    def _state(self):
        state = DashboardState()
        state.ingest(_aggregate(
            1, 100.0,
            counters={"fleet.requests": 5.0, "plan.cache.tours.hit": 3.0,
                      "plan.cache.tours.miss": 1.0},
            gauges={"serve.queue_depth": {"per_shard": {"shard-0": 1.0,
                                                        "shard-1": 2.0},
                                          "max": 2.0}},
            active={"serve.request": 1},
            quantiles={"plan": {"count": 4, "p50": 0.01, "p90": 0.02,
                                "p99": 0.05, "mean": 0.015}},
            shards={"shard-0": "up", "shard-1": "down"}))
        return state

    def test_panel_contains_the_load_bearing_rows(self):
        text = render_dashboard(self._state())
        assert "shard-0:up" in text
        assert "shard-1:down" in text
        assert "tours 3/4" in text
        assert "serve.queue_depth" in text
        assert "plan" in text
        assert "dropped 0" in text

    def test_empty_state_renders_placeholder(self):
        assert "waiting" in render_dashboard(DashboardState())

    def test_svg_is_self_contained(self, tmp_path):
        state = self._state()
        svg = dashboard_svg(state)
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert "shard-0" in svg
        out = save_dashboard_svg(state, tmp_path / "a" / "dash.svg")
        assert out.read_text().startswith("<svg")

    def test_svg_escapes_markup(self):
        state = DashboardState()
        state.ingest(_aggregate(1, 1.0, events=[{"event": "<oops>"}]))
        assert "<oops>" not in dashboard_svg(state)
        assert "&lt;oops&gt;" in dashboard_svg(state)
