"""Property tests for the plan wire format (`repro.io.plan_json`).

The planning service ships :func:`~repro.io.plan_json.plan_to_dict`
documents over the wire and replays them with
:func:`~repro.io.plan_json.plan_from_dict`, so the round trip must be
tour-for-tour identical for *arbitrary* well-formed plans — including
empty (stay-at-home) tours, plans with zero schedulings, and the
deduplicated tour-set table with its sharing metadata.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import ChargingScheduling, SchedulePlan
from repro.io.plan_json import plan_from_dict, plan_to_dict
from repro.tsp.tour import Tour

_N_SENSORS = 8  # graph indices 0..7 are sensors, depots follow


@st.composite
def tour_sets(draw, q: int) -> tuple[Tour, ...]:
    """One scheduling's tour tuple: ``q`` depots, possibly-empty tours."""
    tours = []
    for d in range(_N_SENSORS, _N_SENSORS + q):
        stops = draw(st.lists(st.integers(0, _N_SENSORS - 1),
                              unique=True, min_size=0, max_size=4))
        tours.append(Tour(depot=d, order=(d, *stops)))
    return tuple(tours)


@st.composite
def plans(draw) -> SchedulePlan:
    q = draw(st.integers(1, 3))
    pool = draw(st.lists(tour_sets(q), min_size=1, max_size=3))
    n_sched = draw(st.integers(0, 8))
    picks = draw(st.lists(st.integers(0, len(pool) - 1),
                          min_size=n_sched, max_size=n_sched))
    schedulings = tuple(
        ChargingScheduling(time=float(j + 1), tours=pool[pick])
        for j, pick in enumerate(picks))
    horizon = float(n_sched + draw(st.integers(1, 50)))
    return SchedulePlan.from_schedulings(schedulings, horizon=horizon)


@settings(max_examples=200, deadline=None)
@given(plans())
def test_round_trip_identical(plan):
    """plan_from_dict(plan_to_dict(p)) is tour-for-tour identical."""
    restored = plan_from_dict(plan_to_dict(plan))
    assert restored == plan  # horizon, tour-set table, times and refs
    assert restored.horizon == plan.horizon
    for a, b in zip(plan, restored):
        assert a.time == b.time
        assert a.tours == b.tours  # tour-for-tour, order and depots included


@settings(max_examples=200, deadline=None)
@given(plans())
def test_round_trip_survives_the_wire(plan):
    """JSON-encoding the document (as the serve protocol does) is lossless."""
    wire = json.dumps(plan_to_dict(plan), separators=(",", ":"))
    assert plan_from_dict(json.loads(wire)) == plan


@settings(max_examples=200, deadline=None)
@given(plans())
def test_block_metadata_dedupes_and_restores_sharing(plan):
    """The tour-set table stores each distinct set once; loading restores
    the sharing (Algorithm 3's repeated blocks stay cheap after reload)."""
    data = plan_to_dict(plan)
    distinct = {s.tours for s in plan}
    assert len(data["tour_sets"]) == len(distinct)
    assert len(data["schedulings"]) == len(plan)

    restored = plan_from_dict(data)
    seen: dict[int, tuple] = {}
    for ref, sched in zip(data["schedulings"], restored):
        idx = ref["tours"]
        if idx in seen:  # same table row -> the very same tuple object
            assert sched.tours is seen[idx]
        seen[idx] = sched.tours


@settings(max_examples=100, deadline=None)
@given(plans())
def test_empty_tours_preserved(plan):
    """Stay-at-home tours (`order == (depot,)`) survive the round trip."""
    restored = plan_from_dict(plan_to_dict(plan))
    for a, b in zip(plan, restored):
        for ta, tb in zip(a.tours, b.tours):
            assert ta.is_empty == tb.is_empty
            assert ta.depot == tb.depot
