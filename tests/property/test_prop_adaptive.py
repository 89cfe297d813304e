"""Property-based tests for the adaptive layer's patch repair step."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive.patch import build_patch
from repro.core.quantize import quantize_cycles
from repro.geometry.bbox import Rect
from repro.geometry.point import Point
from repro.network.builder import NetworkBuilder


@st.composite
def patch_instances(draw):
    """A small network + quantisation + a lifetime vector."""
    n = draw(st.integers(2, 12))
    pts = draw(st.lists(
        st.tuples(st.floats(1, 999, allow_nan=False, width=32),
                  st.floats(1, 999, allow_nan=False, width=32)),
        min_size=n + 2, max_size=n + 2, unique=True))
    cycles = draw(st.lists(st.floats(1.0, 30.0, allow_nan=False, width=32),
                           min_size=n, max_size=n))
    net = (NetworkBuilder()
           .with_area(Rect.square(1000.0))
           .with_sensors_at([Point(float(x), float(y)) for x, y in pts[:n]])
           .with_base_station_at_center()
           .with_depots_at([Point(float(x), float(y)) for x, y in pts[n:]])
           .with_cycles(cycles)
           .build())
    quant = quantize_cycles(net.cycles)
    # Lifetimes anywhere from nearly dead to fully safe.
    fracs = draw(st.lists(st.floats(0.0, 1.5, allow_nan=False, width=32),
                          min_size=n, max_size=n))
    lifetimes = quant.assigned * np.asarray(fracs, dtype=np.float64)
    return net, quant, lifetimes


class TestPatchProperties:
    @given(patch_instances(), st.sampled_from(["immediate", "defer"]))
    @settings(max_examples=40, deadline=None)
    def test_every_urgent_sensor_charged_within_lifetime(self, inst, mode):
        """The repair's defining guarantee: each sensor in V^a is assigned
        to a scheduling dispatched no later than its residual lifetime."""
        net, quant, lifetimes = inst
        patch = build_patch(net, quant, lifetimes, tie_break=mode)
        for s in patch.urgent:
            js = [j for j in range(quant.block_size + 1) if s in patch.sets[j]]
            assert js, f"urgent sensor {s} not scheduled at all"
            earliest = min(js)
            # Scheduling j dispatches at relative time j * tau1.
            assert earliest * quant.tau1 <= lifetimes[s] * (1 + 1e-6) + 1e-12

    @given(patch_instances(), st.sampled_from(["immediate", "defer"]))
    @settings(max_examples=40, deadline=None)
    def test_non_urgent_schedule_unchanged(self, inst, mode):
        """Sensors outside V^a keep exactly their base-block schedule."""
        net, quant, lifetimes = inst
        patch = build_patch(net, quant, lifetimes, tie_break=mode)
        for j in range(1, quant.block_size + 1):
            base = {int(s) for s in quant.sensors_due_at(j)}
            extra = patch.sets[j] - base
            assert extra <= patch.urgent, (
                f"scheduling {j} gained non-urgent sensors {extra - patch.urgent}")
            assert base <= patch.sets[j], "patching must never drop a sensor"

    @given(patch_instances(), st.sampled_from(["immediate", "defer"]))
    @settings(max_examples=30, deadline=None)
    def test_retoured_schedulings_cover_their_sets(self, inst, mode):
        net, quant, lifetimes = inst
        patch = build_patch(net, quant, lifetimes, tie_break=mode)
        for j, tours in enumerate(patch.tours):
            if tours is None:
                continue
            covered = set().union(*(t.visited() for t in tours))
            assert patch.sets[j] <= covered
