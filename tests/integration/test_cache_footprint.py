"""Memory footprint of the serving caches at n=2000.

A serve worker keeps its :class:`~repro.plan.cache.PlanArtifactCache`
resident across thousands of plans, and the server parent keeps an LRU of
completed ``plan`` responses, so the bytes one entry retains bound the
service's memory. Both are measured with :mod:`tracemalloc`, which counts
Python and NumPy allocations alike:

* the artifact cache retains at most 250 KB per cold n=2000 plan (the bytes
  freed by clearing it after four cold plans, whose responses were already
  dropped). Keyed by ``frozenset`` with forests as tuples of 2-tuples it
  held ~690 KB;
* one response-LRU entry retains at most 40 KB (a pickled document of
  ~17 KB, where the dict graph itself held ~205 KB).
"""

import gc
import pickle
import tracemalloc

import pytest

from repro.io.network_json import network_from_dict, network_to_dict
from repro.network.builder import build_paper_network
from repro.plan.cache import PlanArtifactCache
from repro.serve.server import PlanningServer, ServeConfig
from repro.serve.worker import execute_plan

N = 2000
PLANS = 4
HORIZON = 300.0


@pytest.fixture(scope="module")
def docs():
    return [network_to_dict(build_paper_network(n=N, q=5, seed=s))
            for s in range(PLANS)]


def _traced() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def test_artifact_cache_retains_at_most_250_kb_per_cold_plan(docs):
    cache = PlanArtifactCache()
    tracemalloc.start()
    try:
        for doc in docs:
            out, _ = execute_plan(network_from_dict(doc), {"horizon": HORIZON},
                                  cache=cache)
            del out
        held = _traced()
        entries = cache.info()
        cache.clear()
        per_plan = (held - _traced()) / PLANS
    finally:
        tracemalloc.stop()
    assert entries["forests"] == entries["tours"] >= PLANS  # every plan cached
    assert per_plan <= 250_000, f"cache retains {per_plan / 1e3:.0f} KB per cold plan"


def test_response_lru_entry_is_at_most_40_kb(docs):
    result, _ = execute_plan(network_from_dict(docs[0]), {"horizon": HORIZON})
    blob = pickle.dumps(result)
    server = PlanningServer(ServeConfig(executor="thread"))
    tracemalloc.start()
    try:
        before = _traced()
        # A private copy of the document that only the LRU can keep alive.
        server._remember(("key",), pickle.loads(blob))
        entry = _traced() - before
    finally:
        tracemalloc.stop()
    assert len(server._responses) == 1
    assert entry <= 40_000, f"one response-LRU entry retains {entry / 1e3:.0f} KB"
