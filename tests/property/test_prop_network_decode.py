"""The columnar network decoder against a per-object reference.

:func:`repro.io.network_json.network_from_dict` fills the network's
columns straight from the document. The reference below decodes the way
the library did when a network was stored as :class:`Sensor` and
:class:`Point` objects: one validated object per node, packed into arrays
afterwards. On valid documents and on documents with one planted defect,
the two must agree on accept or reject; on accept the arrays must be
bit-identical and :func:`network_to_dict` must give the document back.
Any exception from the reference counts as a rejection, and every
rejection by the decoder is a ``ReproError`` saying "malformed".
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkModelError, ReproError
from repro.geometry.bbox import Rect
from repro.geometry.point import Point, points_to_array
from repro.io.network_json import network_from_dict, network_to_dict
from repro.network.depot import BaseStation, Depot
from repro.network.sensor import Sensor


def reference_decode(data):
    """Per-object decode: ``(coordinates, cycles, batteries, base, area)``."""
    area = Rect(*[float(v) for v in data["area"]])
    base = BaseStation(position=Point(*[float(v) for v in data["base_station"]]))
    sensors = tuple(
        Sensor(id=i, position=Point(float(s["x"]), float(s["y"])),
               cycle=float(s["cycle"]), battery=float(s["battery"]))
        for i, s in enumerate(data["sensors"]))
    depots = tuple(Depot(id=i, position=Point(float(x), float(y)))
                   for i, (x, y) in enumerate(data["depots"]))
    if not sensors or not depots:
        raise NetworkModelError("need at least one sensor and one depot")
    coordinates = points_to_array([s.position for s in sensors]
                                  + [d.position for d in depots])
    cycles = np.asarray([s.cycle for s in sensors], dtype=np.float64)
    batteries = np.asarray([s.battery for s in sensors], dtype=np.float64)
    return coordinates, cycles, batteries, base, area


def reference_to_dict(decoded):
    """The document the reference's objects serialise to."""
    coordinates, cycles, batteries, base, area = decoded
    n = cycles.size
    return {
        "area": [area.x0, area.y0, area.x1, area.y1],
        "base_station": [base.position.x, base.position.y],
        "sensors": [{"x": float(x), "y": float(y), "cycle": float(c),
                     "battery": float(b)}
                    for (x, y), c, b in zip(coordinates[:n], cycles, batteries)],
        "depots": [[float(x), float(y)] for x, y in coordinates[n:]],
    }


coords = st.floats(-1e6, 1e6, allow_nan=False)
positive = st.floats(1e-3, 1e6, allow_nan=False)
numbers = st.one_of(coords, st.integers(-1000, 1000))


@st.composite
def documents(draw):
    """Valid documents; ints are accepted wherever a float is."""
    n = draw(st.integers(1, 8))
    q = draw(st.integers(1, 3))
    return {
        "area": [0.0, 0.0, draw(positive), draw(positive)],
        "base_station": [draw(numbers), draw(numbers)],
        "sensors": [{"x": draw(numbers), "y": draw(numbers),
                     "cycle": draw(positive), "battery": draw(positive)}
                    for _ in range(n)],
        "depots": [[draw(numbers), draw(numbers)] for _ in range(q)],
    }


def _numeric_slots(doc):
    """Every (container, key) holding one number of the document."""
    slots = [(doc["area"], i) for i in range(4)]
    slots += [(doc["base_station"], i) for i in range(2)]
    slots += [(s, k) for s in doc["sensors"] for k in ("x", "y", "cycle", "battery")]
    slots += [(d, i) for d in doc["depots"] for i in range(2)]
    return slots


def _plant(draw, doc, defect):
    """Apply one defect of the given kind to ``doc`` in place."""
    if defect == "missing key":
        where = draw(st.sampled_from(["top", "sensor"]))
        if where == "top":
            del doc[draw(st.sampled_from(sorted(doc)))]
        else:
            sensor = draw(st.sampled_from(doc["sensors"]))
            del sensor[draw(st.sampled_from(sorted(sensor)))]
    elif defect in ("non-numeric string", "numeric string", "null"):
        container, key = draw(st.sampled_from(_numeric_slots(doc)))
        container[key] = {"non-numeric string": "twelve",
                          "numeric string": repr(float(container[key])),
                          "null": None}[defect]
    elif defect == "non-finite coordinate":
        points = ([(s, "x") for s in doc["sensors"]] + [(s, "y") for s in doc["sensors"]]
                  + [(d, i) for d in doc["depots"] for i in range(2)]
                  + [(doc["base_station"], i) for i in range(2)])
        container, key = draw(st.sampled_from(points))
        container[key] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif defect == "non-positive cycle or battery":
        sensor = draw(st.sampled_from(doc["sensors"]))
        sensor[draw(st.sampled_from(["cycle", "battery"]))] = draw(
            st.sampled_from([0.0, -0.0, -1.0, -1e-300]))
    elif defect == "no sensors":
        doc["sensors"] = []
    elif defect == "no depots":
        doc["depots"] = []
    elif defect == "three-element depot":
        draw(st.sampled_from(doc["depots"])).append(draw(coords))
    else:  # pragma: no cover - the strategy lists every kind
        raise AssertionError(defect)


DEFECTS = ["missing key", "non-numeric string", "numeric string", "null",
           "non-finite coordinate", "non-positive cycle or battery",
           "no sensors", "no depots", "three-element depot"]


@st.composite
def planted(draw):
    doc = draw(documents())
    defect = draw(st.sampled_from(DEFECTS))
    _plant(draw, doc, defect)
    return defect, doc


def _check_agreement(doc):
    try:
        expected = reference_decode(doc)
    except Exception:  # noqa: BLE001 - any failure of the reference rejects
        expected = None
    if expected is None:
        with pytest.raises(ReproError, match="malformed"):
            network_from_dict(doc)
        return False
    net = network_from_dict(doc)
    coordinates, cycles, batteries, base, area = expected
    for got, want in ((net.coordinates, coordinates), (net.cycles, cycles),
                      (net.batteries, batteries)):
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert net.base_station == base and net.area == area
    assert network_to_dict(net) == reference_to_dict(expected)
    return True


@settings(max_examples=150, deadline=None)
@given(documents())
def test_valid_documents_decode_bit_identically_and_round_trip(doc):
    assert _check_agreement(doc)
    assert network_to_dict(network_from_dict(doc)) == doc


@settings(max_examples=400, deadline=None)
@given(planted())
def test_planted_defects_accepted_or_rejected_like_the_reference(case):
    defect, doc = case
    # float("1.5") has always been accepted; every other defect rejects.
    assert _check_agreement(doc) == (defect == "numeric string")


@pytest.mark.parametrize("doc", [
    None, [], "sensors", {"sensors": "nonsense"},
    {"area": [0, 0, 1, 1], "base_station": [0, 0], "sensors": [[1, 2, 3, 4]],
     "depots": [[0, 0]]},
    {"area": [0, 0, 1], "base_station": [0, 0],
     "sensors": [{"x": 0, "y": 0, "cycle": 1, "battery": 1}], "depots": [[0, 0]]},
    {"area": [1, 1, 0, 0], "base_station": [0, 0],
     "sensors": [{"x": 0, "y": 0, "cycle": 1, "battery": 1}], "depots": [[0, 0]]},
    {"area": [0, 0, 1, 1], "base_station": [0, 0],
     "sensors": [{"x": 10**400, "y": 0, "cycle": 1, "battery": 1}], "depots": [[0, 0]]},
], ids=["none", "list", "string", "sensors-string", "list-sensor", "short-area",
        "degenerate-area", "overflowing-int"])
def test_structurally_broken_documents_are_malformed(doc):
    with pytest.raises(ReproError, match="malformed"):
        network_from_dict(doc)
