"""Golden plan digests: the planner's output bytes must never drift.

Each digest is the sha256 of the canonical JSON (sorted keys, compact
separators) of the Algorithm 3 plan for one fixed paper topology, recorded
when the q-rooted MSF still ran dense Prim over the full distance matrix.
Tours walk each forest in edge-insertion order, so a change to the
forest's edges, their discovery order or their orientation — not just to
its weight — changes these bytes. Both planner branches (no cache; a fresh
artifact cache) must reproduce them.
"""

import hashlib
import json

import pytest

from repro.core.mintotal import min_total_distance
from repro.io.plan_json import plan_to_dict
from repro.network.builder import build_paper_network
from repro.plan.cache import PlanArtifactCache

#: (n, seed, refine) -> sha256 of the plan document, q=5, horizon 300.
GOLDEN = {
    (30, 1, False): "45b2665c5680a210b6fe2001273a99f6f0ca18b046af81a9cad2e27f6415301d",
    (30, 1, True): "28554ba090290e827eb2348f98e6a2f238a9366f20d1ea438ee1efd8ae599492",
    (200, 2, False): "07b3b8a5e49dced505e3bd03d2bbab44538cceac9993b59c7a38ae1cc9f8de13",
    (200, 2, True): "cd906b49c10c2602237684d0d4209022b9b551a7f141d00089f5f0c29ccff411",
    (2000, 3, False): "de944663730ac242374764e1bfd466d00612341427ca136bf1f636d06088fb10",
    (2000, 3, True): "b35774a9cda7cbf41dc78a17fa189b3c3cd12a74a88868a7f80ee15f5f625140",
    (5000, 4, False): "f9fe420645d52d30e571e03e552b9fd97fbcf7df230ed38ef7026caaf5a64414",
    (5000, 4, True): "04f745adeec9eab3bcbf7a249276eb1e139d036899ea524b7b69bc0406a068c5",
}


def _sha(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":"))
                          .encode()).hexdigest()


@pytest.mark.parametrize("n, seed", [(30, 1), (200, 2), (2000, 3), (5000, 4)])
def test_plan_bytes_match_golden(n, seed):
    net = build_paper_network(n=n, q=5, seed=seed)
    for refine in (False, True):
        want = GOLDEN[(n, seed, refine)]
        for cache in (None, PlanArtifactCache()):
            plan = min_total_distance(net, 300.0, refine=refine, cache=cache).plan
            assert _sha(plan_to_dict(plan)) == want, (
                f"plan bytes drifted at n={n} refine={refine} "
                f"cache={'on' if cache is not None else 'off'}")
