"""Two servers sharing one on-disk plan-artifact store (the fleet's tier 3).

The fleet PR promotes :class:`~repro.plan.store.PlanArtifactStore` from a
per-server warm-restart cache to a *shared* tier shared by every shard of
a fleet: whatever one shard computes is write-through published for all.
These tests pin that contract with two independent
:class:`~repro.serve.ServerThread` servers pointed at the same store root
(in-process for speed; the store's locking + atomic-publication design is
identical across real processes, which ``repro check fleet`` and the
fleet fail-over tests exercise):

* a plan computed by server A is served warm by a *concurrently running*
  server B — same payload, zero recomputation of the shared artifacts;
* a corrupt entry is quarantined by whichever store client touches it
  first and is then invisible to both — never served by either.
"""

import pytest

from repro.io.network_json import network_to_dict
from repro.network.builder import build_paper_network
from repro.plan import PlanArtifactStore, plan_tours
from repro.serve import ServeClient, ServeConfig, ServerThread


@pytest.fixture(scope="module")
def net_model():
    return build_paper_network(n=16, q=2, seed=31)


@pytest.fixture(scope="module")
def net(net_model):
    return network_to_dict(net_model)


def _config(store_root):
    return ServeConfig(executor="thread", workers=2, queue_limit=32,
                       default_deadline=60.0, drain_timeout=10.0,
                       cache_dir=str(store_root))


class TestSharedStoreAcrossServers:
    def test_write_through_on_a_is_warm_on_b(self, net, tmp_path):
        root = tmp_path / "store"
        with ServerThread(_config(root)) as a:
            with ServeClient(*a.address) as ca:
                first = ca.plan(net, 300.0)
                stats_a = ca.stats()
                # Write-through at compute time, not just on drain.
                assert stats_a["counters"]["plan.cache.disk.writes"] >= 1
                assert stats_a["counters"]["plan.calls"] == 1

            # A is still running: B boots against the same root and
            # warm-starts from A's published artifacts.
            with ServerThread(_config(root)) as b:
                with ServeClient(*b.address) as cb:
                    again = cb.plan(net, 300.0)
                    assert again["plan"] == first["plan"]
                    assert again["service_cost"] == first["service_cost"]
                    assert again.get("cached") is None  # not B's response cache
                    stats_b = cb.stats()
                    # B's planner ran, but the shared artifacts were hits.
                    assert stats_b["counters"]["plan.cache.tours.hit"] >= 1

    def test_both_servers_can_write_distinct_geometries(self, net, tmp_path):
        other = network_to_dict(build_paper_network(n=16, q=2, seed=32))
        root = tmp_path / "store"
        with ServerThread(_config(root)) as a, ServerThread(_config(root)) as b:
            with ServeClient(*a.address) as ca, ServeClient(*b.address) as cb:
                pa = ca.plan(net, 300.0)
                pb = cb.plan(other, 300.0)
                # Cross-check: each server serves the *other's* geometry
                # from the shared store without recomputing tours.
                assert cb.plan(net, 300.0)["plan"] == pa["plan"]
                assert ca.plan(other, 300.0)["plan"] == pb["plan"]
                assert ca.stats()["counters"]["plan.cache.tours.hit"] >= 1
                assert cb.stats()["counters"]["plan.cache.tours.hit"] >= 1
        store = PlanArtifactStore(root)
        assert store.n_entries >= 2
        assert store.stats()["quarantined"] == 0


class TestQuarantineSharedRoot:
    def test_quarantine_respected_by_every_store_client(self, net_model, tmp_path):
        root = tmp_path / "store"
        a = PlanArtifactStore(root)
        b = PlanArtifactStore(root)  # second client of the same root
        cov = frozenset({0, 1, 2})
        tours = plan_tours(net_model, cov)
        a.put_tours("fp", cov, False, tours)
        assert b.get_tours("fp", cov, False) == tours

        (entry,) = sorted(a._objects.rglob("*.json"))
        blob = bytearray(entry.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        entry.write_bytes(bytes(blob))

        # Whichever client reads first quarantines; the other sees a miss —
        # the corrupt entry is never served by anyone.
        assert b.get_tours("fp", cov, False) is None
        assert a.get_tours("fp", cov, False) is None
        assert a.stats()["quarantined"] == 1
        assert b.stats()["quarantined"] == 1

        # Recompute-and-republish through either client heals the key.
        b.put_tours("fp", cov, False, tours)
        assert a.get_tours("fp", cov, False) == tours
