"""Unit tests for :mod:`repro.io`."""

import numpy as np
import pytest

from repro.core.mintotal import min_total_distance
from repro.errors import ReproError
from repro.io.files import load_json, save_json
from repro.io.network_json import (
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
)
from repro.io.plan_json import load_plan, plan_from_dict, plan_to_dict, save_plan


class TestEnvelope:
    def test_round_trip(self, tmp_path):
        p = save_json(tmp_path / "x.json", "thing", {"a": 1})
        assert load_json(p, "thing") == {"a": 1}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="no such file"):
            load_json(tmp_path / "nope.json", "thing")

    def test_wrong_kind(self, tmp_path):
        p = save_json(tmp_path / "x.json", "thing", {})
        with pytest.raises(ReproError, match="expected"):
            load_json(p, "other")

    def test_wrong_version(self, tmp_path):
        import json

        p = tmp_path / "x.json"
        p.write_text(json.dumps({"kind": "thing", "version": 99, "data": {}}))
        with pytest.raises(ReproError, match="version"):
            load_json(p, "thing")

    def test_not_an_envelope(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("[1, 2, 3]")
        with pytest.raises(ReproError, match="envelope"):
            load_json(p, "thing")

    def test_creates_parent_dirs(self, tmp_path):
        p = save_json(tmp_path / "a" / "b" / "x.json", "thing", {})
        assert p.exists()


class TestNetworkRoundTrip:
    def test_exact_round_trip(self, paper_network_small, tmp_path):
        net = paper_network_small
        p = save_network(net, tmp_path / "net.json")
        loaded = load_network(p)
        assert loaded.n == net.n and loaded.q == net.q
        np.testing.assert_array_equal(loaded.coordinates, net.coordinates)
        np.testing.assert_array_equal(loaded.cycles, net.cycles)
        np.testing.assert_array_equal(loaded.batteries, net.batteries)
        assert loaded.base_station.position == net.base_station.position
        assert loaded.area == net.area

    def test_distances_identical_after_reload(self, tiny_network, tmp_path):
        p = save_network(tiny_network, tmp_path / "net.json")
        loaded = load_network(p)
        np.testing.assert_array_equal(loaded.dist, tiny_network.dist)

    def test_malformed_dict_raises(self):
        with pytest.raises(ReproError, match="malformed"):
            network_from_dict({"area": [0, 0, 1, 1]})

    def test_dict_is_json_clean(self, tiny_network):
        import json

        text = json.dumps(network_to_dict(tiny_network))
        assert "sensors" in text


class TestPlanRoundTrip:
    def test_cost_preserving_round_trip(self, tiny_network, tmp_path):
        res = min_total_distance(tiny_network, horizon=16.0)
        p = save_plan(res.plan, tmp_path / "plan.json")
        loaded = load_plan(p)
        assert len(loaded) == len(res.plan)
        np.testing.assert_array_equal(loaded.times, res.plan.times)
        assert loaded.total_cost(tiny_network.dist) == res.plan.total_cost(
            tiny_network.dist)

    def test_sharing_restored(self, tiny_network, tmp_path):
        res = min_total_distance(tiny_network, horizon=32.0)
        loaded = load_plan(save_plan(res.plan, tmp_path / "plan.json"))
        bs = res.quantization.block_size
        # Schedulings one block apart must share the same tours tuple object.
        assert loaded[0].tours is loaded[bs].tours

    def test_deduplication_shrinks_encoding(self, tiny_network):
        res = min_total_distance(tiny_network, horizon=64.0)
        data = plan_to_dict(res.plan)
        assert len(data["tour_sets"]) < len(data["schedulings"])

    def test_equal_distinct_tour_sets_share_one_entry(self, tiny_network):
        """The table dedups by value, not only by object identity: a plan
        whose schedulings carry equal but distinct tour tuples encodes
        exactly like the one that shares a single tuple."""
        from repro.core.schedule import ChargingScheduling, SchedulePlan
        from repro.tsp.tour import Tour

        plan = min_total_distance(tiny_network, horizon=64.0).plan
        copied = SchedulePlan.from_schedulings([
            ChargingScheduling(time=s.time, tours=tuple(
                Tour(depot=t.depot, order=tuple(t.order)) for t in s.tours))
            for s in plan], horizon=plan.horizon)
        assert copied[0].tours == plan[0].tours
        assert copied[0].tours is not plan[0].tours
        assert plan_to_dict(copied) == plan_to_dict(plan)
        assert len(plan_to_dict(copied)["tour_sets"]) < len(copied)

    def test_charge_semantics_survive(self, tiny_network, tmp_path):
        res = min_total_distance(tiny_network, horizon=16.0)
        loaded = load_plan(save_plan(res.plan, tmp_path / "plan.json"))
        for i in range(tiny_network.n):
            assert loaded.charge_times_of(i) == res.plan.charge_times_of(i)

    def test_reloaded_plan_simulates_identically(self, tiny_network, tmp_path):
        from repro.sim.engine import simulate
        from repro.sim.policies import PlannedPolicy
        from repro.sim.workload import FixedWorkload

        res = min_total_distance(tiny_network, horizon=16.0)
        loaded = load_plan(save_plan(res.plan, tmp_path / "plan.json"))
        wl = FixedWorkload.from_network(tiny_network)
        a = simulate(tiny_network, PlannedPolicy(res.plan), wl, 16.0)
        b = simulate(tiny_network, PlannedPolicy(loaded), wl, 16.0)
        assert a.metrics.service_cost == pytest.approx(b.metrics.service_cost)
        assert b.metrics.perpetual

    def test_malformed_plan_raises(self):
        with pytest.raises(ReproError, match="malformed"):
            plan_from_dict({"horizon": 10.0, "tour_sets": [], "schedulings": [
                {"time": 1.0, "tours": 5}]})

    @pytest.mark.parametrize("ref", [-1, True, 1.9, "0", None])
    def test_bad_ref_rejected(self, ref):
        """A ref must be a non-bool integer index into the table: ``-1``
        would wrap to the last entry and ``True``/``1.9`` truncate to 1."""
        tours = [[{"depot": 3, "order": [3]}], [{"depot": 3, "order": [3, 0]}]]
        data = {"horizon": 10.0, "tour_sets": tours, "schedulings": [
            {"time": 1.0, "tours": 0}, {"time": 2.0, "tours": ref}]}
        with pytest.raises(ReproError, match="tour-set ref"):
            plan_from_dict(data)
        data["schedulings"][1]["tours"] = 1
        assert [s.tours[0].order for s in plan_from_dict(data)] == [(3,), (3, 0)]
