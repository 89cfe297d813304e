"""Property test for the fleet router's routing key.

The router keys a request on the geometry fingerprint of its network
document (:func:`repro.fleet.router.routing_key`), decoded with the same
columnar decoder the shards use — an O(n) byte hash, no O(n^2)
distance-matrix build. Routing is only sound if that key equals the
model's ``geometry_fingerprint`` on every network the fleet can see, so:
for arbitrary generated scenarios, the routing key of the network
*document* must equal ``geometry_fingerprint`` of the network — bare
payload, envelope-wrapped, and after a JSON wire round trip.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.router import routing_key
from repro.io.network_json import network_from_dict, network_to_dict
from repro.network.builder import build_paper_network
from repro.scenarios import SCENARIOS, build_instance


@st.composite
def networks(draw):
    """Arbitrary small generated deployments across every builder regime."""
    n = draw(st.integers(2, 24))
    q = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**31 - 1))
    side = draw(st.sampled_from([100.0, 1000.0, 3000.0]))
    deployment = draw(st.sampled_from(["uniform", "clustered", "grid"]))
    return build_paper_network(n=n, q=q, seed=seed, side=side,
                               deployment=deployment)


@settings(max_examples=100, deadline=None)
@given(networks())
def test_routing_key_equals_geometry_fingerprint(net):
    """Doc-level routing key == fingerprint of the fully parsed network."""
    doc = network_to_dict(net)
    assert routing_key({"network": doc}) == net.geometry_fingerprint
    # ... and the parsed network agrees with itself (doc is faithful).
    assert network_from_dict(doc).geometry_fingerprint == net.geometry_fingerprint


@settings(max_examples=100, deadline=None)
@given(networks())
def test_routing_key_stable_across_envelope_and_wire(net):
    """Envelope wrapping and a JSON round trip don't change the route."""
    doc = network_to_dict(net)
    enveloped = {"kind": "sensor-network", "version": 1, "data": doc}
    wire = json.loads(json.dumps({"network": enveloped}))
    assert routing_key({"network": enveloped}) == net.geometry_fingerprint
    assert routing_key(wire) == net.geometry_fingerprint


def test_routing_key_matches_for_registered_scenarios():
    """Every registry scenario routes by its parsed fingerprint — including
    heterogeneous-batteries, where capacities differ but geometry (and so
    the route) is shared with the homogeneous twin."""
    for spec in SCENARIOS.values():
        inst = build_instance(spec, 0)
        doc = network_to_dict(inst.network)
        assert routing_key({"network": doc}) == inst.network.geometry_fingerprint
