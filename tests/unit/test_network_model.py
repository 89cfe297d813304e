"""Unit tests for :mod:`repro.network.model`."""

import pickle

import numpy as np
import pytest

from repro.errors import NetworkModelError
from repro.geometry.bbox import Rect
from repro.geometry.point import Point
from repro.io.network_json import network_from_dict
from repro.network.builder import build_paper_network
from repro.network.depot import BaseStation, Depot
from repro.network.model import SensorNetwork
from repro.network.sensor import Sensor
from repro.serve.server import plan_key


def _net():
    sensors = tuple(Sensor(id=i, position=Point(10 * i, 0), cycle=float(i + 1))
                    for i in range(4))
    depots = (Depot(id=0, position=Point(0, 50)), Depot(id=1, position=Point(30, 50)))
    return SensorNetwork.from_sensors(sensors, depots,
                                      base_station=BaseStation(Point(15, 0)),
                                      area=Rect.square(100.0))


class TestIndexing:
    def test_sizes(self):
        net = _net()
        assert (net.n, net.q, net.n_nodes) == (4, 2, 6)

    def test_depot_index_convention(self):
        net = _net()
        assert net.depot_index(0) == 4
        assert net.depot_index(1) == 5
        np.testing.assert_array_equal(net.depot_indices, [4, 5])
        np.testing.assert_array_equal(net.sensor_indices, [0, 1, 2, 3])

    def test_is_depot(self):
        net = _net()
        assert not net.is_depot(3)
        assert net.is_depot(4) and net.is_depot(5)

    def test_depot_index_out_of_range(self):
        with pytest.raises(NetworkModelError):
            _net().depot_index(2)


class TestGeometry:
    def test_coordinates_order(self):
        net = _net()
        assert net.coordinates.shape == (6, 2)
        np.testing.assert_array_equal(net.coordinates[0], [0, 0])
        np.testing.assert_array_equal(net.coordinates[4], [0, 50])

    def test_dist_is_metric_and_readonly(self):
        net = _net()
        d = net.dist
        assert d.shape == (6, 6)
        assert d[0, 1] == pytest.approx(10.0)
        with pytest.raises(ValueError):
            d[0, 1] = 99.0

    def test_base_distances(self):
        net = _net()
        assert net.base_distances[0] == pytest.approx(15.0)
        assert net.base_distances.shape == (4,)


class TestCycles:
    def test_arrays(self):
        net = _net()
        np.testing.assert_array_equal(net.cycles, [1, 2, 3, 4])
        np.testing.assert_array_equal(net.batteries, np.ones(4))
        np.testing.assert_allclose(net.rates, [1, 0.5, 1 / 3, 0.25])
        assert net.tau_min == 1.0 and net.tau_max == 4.0

    def test_with_cycles_replaces(self):
        net = _net()
        net2 = net.with_cycles([5, 6, 7, 8])
        np.testing.assert_array_equal(net2.cycles, [5, 6, 7, 8])
        np.testing.assert_array_equal(net.cycles, [1, 2, 3, 4])  # original
        np.testing.assert_array_equal(net2.coordinates, net.coordinates)

    def test_with_cycles_wrong_shape(self):
        with pytest.raises(NetworkModelError):
            _net().with_cycles([1.0, 2.0])


class TestInducedNodes:
    def test_with_depots(self):
        net = _net()
        np.testing.assert_array_equal(net.induced_nodes([2, 0]), [0, 2, 4, 5])

    def test_without_depots(self):
        net = _net()
        np.testing.assert_array_equal(
            net.induced_nodes([2, 0], include_depots=False), [0, 2])

    def test_deduplicates(self):
        net = _net()
        np.testing.assert_array_equal(
            net.induced_nodes([1, 1, 1], include_depots=False), [1])

    def test_rejects_out_of_range(self):
        with pytest.raises(NetworkModelError):
            _net().induced_nodes([4])  # 4 is a depot index, not a sensor id


class TestValidation:
    def test_rejects_bad_sensor_ids(self):
        sensors = (Sensor(id=1, position=Point(0, 0), cycle=1.0),)
        with pytest.raises(NetworkModelError, match="ids must be"):
            SensorNetwork.from_sensors(sensors,
                                       depots=(Depot(id=0, position=Point(1, 1)),),
                                       base_station=BaseStation(Point(0, 0)))

    def test_rejects_empty(self):
        with pytest.raises(NetworkModelError):
            SensorNetwork.from_sensors((), (Depot(id=0, position=Point(0, 0)),),
                                       base_station=BaseStation(Point(0, 0)))


class TestMembershipMask:
    def test_all_online_by_default(self):
        mask = _net().membership_mask()
        assert mask.shape == (4,) and mask.dtype == bool and mask.all()

    def test_offline_ids_cleared(self):
        mask = _net().membership_mask(offline=[1, 3])
        np.testing.assert_array_equal(mask, [True, False, True, False])

    def test_out_of_range_rejected(self):
        net = _net()
        with pytest.raises(NetworkModelError):
            net.membership_mask(offline=[4])
        with pytest.raises(NetworkModelError):
            net.membership_mask(offline=[-1])


class TestColumns:
    def test_columns_are_read_only(self):
        net = _net()
        for column in (net.coordinates, net.cycles, net.batteries):
            assert column.dtype == np.float64 and not column.flags.writeable

    def test_writable_argument_is_copied(self):
        coordinates = np.array([[0.0, 0.0], [1.0, 1.0]])
        net = SensorNetwork(coordinates, [1.0], [1.0], BaseStation(Point(0, 0)))
        coordinates[0, 0] = 99.0
        assert net.coordinates[0, 0] == 0.0

    @pytest.mark.parametrize("coordinates, cycles, batteries, match", [
        ([[0, 0], [1, 1]], [], [], "at least one sensor"),
        ([[0, 0]], [1.0], [1.0], "at least one depot"),
        ([[0, 0], [np.nan, 1]], [1.0], [1.0], "finite"),
        ([[0, 0], [1, 1]], [0.0], [1.0], "cycles must be positive"),
        ([[0, 0], [1, 1]], [1.0], [np.inf], "batteries must be positive"),
        ([[0, 0], [1, 1]], [1.0], [1.0, 1.0], "batteries"),
        ([0, 0, 1, 1], [1.0], [1.0], "shape"),
    ])
    def test_validation(self, coordinates, cycles, batteries, match):
        with pytest.raises(NetworkModelError, match=match):
            SensorNetwork(coordinates, cycles, batteries, BaseStation(Point(0, 0)))

    def test_derived_objects_match_the_columns(self):
        net = _net()
        assert [s.id for s in net.sensors] == [0, 1, 2, 3]
        assert net.sensors[2].position == Point(20.0, 0.0)
        assert net.sensors[3].cycle == 4.0 and net.sensors[3].battery == 1.0
        assert [d.position for d in net.depots] == [Point(0, 50), Point(30, 50)]

    def test_copies_share_the_geometry(self):
        net = _net()
        fingerprint = net.geometry_fingerprint
        for copy in (net.with_cycles([5, 6, 7, 8]), net.with_batteries([2, 2, 2, 2])):
            assert copy.coordinates is net.coordinates
            assert copy.__dict__["geometry_fingerprint"] == fingerprint
            assert "sensors" not in copy.__dict__
        assert net.with_batteries([2, 2, 2, 2]).cycles is net.cycles
        np.testing.assert_array_equal(net.with_batteries([2, 3, 4, 5]).batteries,
                                      [2, 3, 4, 5])

    def test_with_batteries_wrong_shape(self):
        with pytest.raises(NetworkModelError):
            _net().with_batteries([1.0])


class TestPickle:
    def test_pickles_as_its_columns_only(self):
        net = build_paper_network(n=400, q=4, seed=2)
        size = len(pickle.dumps(net))
        # O(n): the three columns' bytes plus a constant
        assert size < 8 * (2 * net.n_nodes + 2 * net.n) + 2048
        net.dist, net.sensors, net.depots, net.rates, net.base_distances
        assert net.geometry_fingerprint
        blob = pickle.dumps(net)
        assert len(blob) == size
        loaded = pickle.loads(blob)
        assert set(vars(loaded)) == {"coordinates", "cycles", "batteries",
                                     "base_station", "area"}
        for name in ("coordinates", "cycles", "batteries"):
            assert getattr(loaded, name).tobytes() == getattr(net, name).tobytes()
            assert not getattr(loaded, name).flags.writeable
        assert loaded.geometry_fingerprint == net.geometry_fingerprint
        assert (loaded.base_station, loaded.area) == (net.base_station, net.area)


#: One fixed document and the digests the object-backed model gave it;
#: plan keys, artifact-store keys and fleet routing all hash these bytes.
PINNED_DOC = {
    "area": [0.0, 0.0, 1000.0, 1000.0],
    "base_station": [500.0, 500.0],
    "sensors": [
        {"x": 12.5, "y": 801.25, "cycle": 3.0, "battery": 1.0},
        {"x": 433.0625, "y": 19.75, "cycle": 7.5, "battery": 2.25},
        {"x": 977.125, "y": 640.5, "cycle": 1.0, "battery": 0.5},
        {"x": 250.0, "y": 250.0, "cycle": 12.0, "battery": 1.0},
        {"x": 0.1, "y": 999.9, "cycle": 0.3, "battery": 1.0},
    ],
    "depots": [[500.0, 500.0], [100.3, 700.7]],
}
PINNED_FINGERPRINT = "26e17bcaf6c68f4c89b0b8e14cb3e68465cb7d3703b79a92df100cb9ef327118"
PINNED_CYCLES = "d8bc7c3d0dcba6f43f90b6d1199510389b70583aeb7a2bb1510cc82f6b370eec"


class TestPinnedDigests:
    def test_geometry_fingerprint(self):
        assert network_from_dict(PINNED_DOC).geometry_fingerprint == PINNED_FINGERPRINT

    def test_plan_key(self):
        params = {"network": PINNED_DOC, "horizon": 120.0, "refine": True, "base": 2}
        assert plan_key(params) == (PINNED_FINGERPRINT, PINNED_CYCLES, 120.0, True, 2)
