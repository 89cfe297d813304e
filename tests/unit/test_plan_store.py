"""Unit tests for the on-disk plan-artifact store (the cache's tier 2).

Covers the durability contract of :mod:`repro.plan.store` — round-trips,
corruption detection (bit-flips, truncation, mis-addressed entries, junk),
quarantine-never-serve, the marker guard on destructive operations — and
the two-tier integration: :func:`repro.plan.pipeline.plan_tours` falling
back to disk on a memory miss, warm restarts of
:func:`repro.core.mintotal.min_total_distance`, and the serve workers'
``warm``/``flush`` bulk paths. Random-interleaving and multi-process
consistency live in ``tests/property/test_prop_plan_store.py``.
"""

import json

import pytest

from repro.core.mintotal import min_total_distance
from repro.errors import ConfigError
from repro.network.builder import build_paper_network
from repro.obs import Instrumentation
from repro.plan import PlanArtifactCache, PlanArtifactStore, plan_tours
from repro.rooted.msf import q_rooted_msf


@pytest.fixture(scope="module")
def net():
    return build_paper_network(n=15, q=2, seed=11)


@pytest.fixture
def store(tmp_path):
    return PlanArtifactStore(tmp_path / "store")


def _entry_paths(store):
    return sorted(store._objects.rglob("*.json"))


class TestRoundTrip:
    def test_tours_round_trip(self, net, store):
        cov = frozenset({0, 1, 2})
        tours = plan_tours(net, cov)
        store.put_tours("fp", cov, False, tours)
        assert store.get_tours("fp", cov, False) == tours
        assert store.get_tours("fp", cov, True) is None      # refine keyed
        assert store.get_tours("other", cov, False) is None  # fingerprint keyed
        assert store.get_tours("fp", frozenset({0, 1}), False) is None

    def test_forest_round_trip(self, net, store):
        cov = sorted({0, 1, 2, 3})
        forest = q_rooted_msf(net.dist, cov, [int(i) for i in net.depot_indices])
        store.put_forest("fp", frozenset(cov), forest)
        assert store.get_forest("fp", frozenset(cov)) == forest
        assert store.get_forest("other", frozenset(cov)) is None

    def test_persists_across_instances(self, net, tmp_path):
        cov = frozenset({1, 2})
        tours = plan_tours(net, cov)
        PlanArtifactStore(tmp_path / "s").put_tours("fp", cov, True, tours)
        reopened = PlanArtifactStore(tmp_path / "s")
        assert reopened.get_tours("fp", cov, True) == tours

    def test_overwrite_is_idempotent(self, net, store):
        cov = frozenset({0, 1})
        tours = plan_tours(net, cov)
        p1 = store.put_tours("fp", cov, False, tours)
        p2 = store.put_tours("fp", cov, False, tours)
        assert p1 == p2
        assert store.n_entries == 1


class TestMarkerGuard:
    def test_rejects_foreign_nonempty_directory(self, tmp_path):
        foreign = tmp_path / "data"
        foreign.mkdir()
        (foreign / "precious.txt").write_text("not a store")
        with pytest.raises(ConfigError, match="marker"):
            PlanArtifactStore(foreign)
        assert (foreign / "precious.txt").exists()  # untouched

    def test_rejects_file_path(self, tmp_path):
        f = tmp_path / "afile"
        f.write_text("x")
        with pytest.raises(ConfigError, match="not a directory"):
            PlanArtifactStore(f)

    def test_accepts_empty_and_own_directories(self, tmp_path):
        root = tmp_path / "s"
        PlanArtifactStore(root)          # creates + markers
        PlanArtifactStore(root)          # reopens its own directory
        assert (root / "plan-store.json").exists()


class TestCorruption:
    def _single_entry(self, net, store):
        cov = frozenset({0, 1, 2})
        tours = plan_tours(net, cov)
        store.put_tours("fp", cov, False, tours)
        (path,) = _entry_paths(store)
        return cov, tours, path

    def test_bit_flip_quarantined_not_served(self, net, store):
        cov, _, path = self._single_entry(net, store)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x20
        path.write_bytes(bytes(blob))
        obs = Instrumentation()
        assert store.get_tours("fp", cov, False, obs=obs) is None
        assert not path.exists()  # moved to quarantine
        assert store.stats()["quarantined"] == 1
        assert obs.counters["plan.cache.disk.corrupt"] == 1
        assert obs.counters["plan.cache.disk.misses"] == 1

    def test_truncation_quarantined(self, net, store):
        cov, _, path = self._single_entry(net, store)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert store.get_tours("fp", cov, False) is None
        assert store.stats()["quarantined"] == 1

    def test_mis_addressed_entry_rejected(self, net, store):
        """A valid entry copied under another key's address must not be
        served as that key (entry key is checked against the request)."""
        cov_a, cov_b = frozenset({0, 1}), frozenset({2, 3})
        store.put_tours("fp", cov_a, False, plan_tours(net, cov_a))
        store.put_tours("fp", cov_b, False, plan_tours(net, cov_b))
        a, b = _entry_paths(store)
        b.write_bytes(a.read_bytes())  # b's address now holds a's entry
        served = [store.get_tours("fp", c, False) for c in (cov_a, cov_b)]
        assert None in served  # the mis-keyed read is a miss, never a lie
        assert store.stats()["session"]["corrupt"] >= 1

    def test_wrong_version_reads_as_miss(self, net, store):
        cov, _, path = self._single_entry(net, store)
        entry = json.loads(path.read_bytes())
        entry["version"] = 999
        path.write_text(json.dumps(entry))
        assert store.get_tours("fp", cov, False) is None

    def test_junk_json_reads_as_miss(self, net, store):
        cov, _, path = self._single_entry(net, store)
        path.write_text('{"hello": "world"}')
        assert store.get_tours("fp", cov, False) is None

    def test_recompute_after_quarantine_round_trips(self, net, store):
        cov, tours, path = self._single_entry(net, store)
        path.write_bytes(b"garbage")
        assert store.get_tours("fp", cov, False) is None
        store.put_tours("fp", cov, False, tours)  # the replan writes back
        assert store.get_tours("fp", cov, False) == tours


class TestTwoTierPipeline:
    def test_disk_fallback_promotes_into_memory(self, net, tmp_path):
        cov = frozenset(range(6))
        store = PlanArtifactStore(tmp_path / "s")
        cold = plan_tours(net, cov, cache=PlanArtifactCache(), store=store)

        cache, obs = PlanArtifactCache(), Instrumentation()
        warm = plan_tours(net, cov, cache=cache, store=store, obs=obs)
        assert warm == cold
        assert obs.counters["plan.cache.disk.hits"] == 1
        assert "plan.cache.disk.writes" not in obs.counters
        # Promoted: the next lookup is a pure memory hit, no disk traffic.
        obs2 = Instrumentation()
        plan_tours(net, cov, cache=cache, store=store, obs=obs2)
        assert obs2.counters["plan.cache.tours.hit"] == 1
        assert "plan.cache.disk.hits" not in obs2.counters

    def test_cold_compute_writes_through(self, net, tmp_path):
        store, obs = PlanArtifactStore(tmp_path / "s"), Instrumentation()
        plan_tours(net, frozenset({0, 1, 2}), cache=PlanArtifactCache(),
                   store=store, obs=obs)
        # One forest + one tour set hit disk.
        assert obs.counters["plan.cache.disk.writes"] == 2
        assert obs.counters["plan.cache.disk.bytes"] > 0
        assert store.n_entries == 2

    def test_store_only_mode_works(self, net, tmp_path):
        """No memory cache at all: the store alone carries the reuse."""
        store = PlanArtifactStore(tmp_path / "s")
        cov = frozenset({0, 1, 2, 3})
        first = plan_tours(net, cov, store=store)
        obs = Instrumentation()
        second = plan_tours(net, cov, store=store, obs=obs)
        assert second == first
        assert obs.counters["plan.cache.disk.hits"] == 1

    def test_warm_restart_plan_identical(self, net, tmp_path):
        """The acceptance criterion: disk-warm replans are tour-identical."""
        cold = min_total_distance(net, 150.0, refine=True)
        store_dir = tmp_path / "s"
        min_total_distance(net, 150.0, refine=True,
                           cache=PlanArtifactCache(),
                           store=PlanArtifactStore(store_dir))
        # Simulated restart: fresh memory cache, fresh store handle.
        restarted = PlanArtifactStore(store_dir)
        warm = min_total_distance(net, 150.0, refine=True,
                                  cache=PlanArtifactCache(), store=restarted)
        assert warm.levels == cold.levels
        assert len(warm.plan) == len(cold.plan)
        for a, b in zip(warm.plan, cold.plan):
            assert a.time == b.time and a.tours == b.tours
        assert restarted.stats()["session"]["hits"] > 0


class TestBulkOps:
    def _populated(self, net, tmp_path):
        store = PlanArtifactStore(tmp_path / "s")
        cache = PlanArtifactCache()
        min_total_distance(net, 150.0, cache=cache, store=store)
        return store, cache

    def test_warm_loads_everything(self, net, tmp_path):
        store, _ = self._populated(net, tmp_path)
        cache = PlanArtifactCache()
        loaded = store.warm(cache)
        assert loaded == store.n_entries > 0
        # Warmed cache serves Algorithm 3 without touching disk again.
        obs = Instrumentation()
        min_total_distance(net, 150.0, cache=cache,
                           store=PlanArtifactStore(store.root), obs=obs)
        assert "plan.cache.disk.misses" not in obs.counters

    def test_warm_skips_corrupt(self, net, tmp_path):
        store, _ = self._populated(net, tmp_path)
        n = store.n_entries
        victim = _entry_paths(store)[0]
        victim.write_bytes(b"\x00" * 10)
        assert store.warm(PlanArtifactCache()) == n - 1
        assert store.stats()["quarantined"] == 1

    def test_flush_writes_only_missing(self, net, tmp_path):
        store, cache = self._populated(net, tmp_path)
        assert store.flush(cache) == 0  # write-through already persisted all
        store.clear()
        assert store.flush(cache) == cache.n_entries > 0
        assert store.n_entries == cache.n_entries

    def test_flush_of_a_persisted_cache_rebuilds_no_forest(
            self, net, tmp_path, monkeypatch):
        """Draining a write-through cache decides on the keys: nothing is
        written and no packed forest is rebuilt into a RootedForest."""
        import repro.plan.cache as cache_mod

        store, cache = self._populated(net, tmp_path)
        assert cache.info()["forests"] > 0
        unpacked = []
        real = cache_mod._unpack_forest
        monkeypatch.setattr(cache_mod, "_unpack_forest",
                            lambda packed: unpacked.append(1) or real(packed))
        assert store.flush(cache) == 0
        assert unpacked == []
        # A missing forest entry is rebuilt once, to be written.
        next(p for p in _entry_paths(store)
             if json.loads(p.read_bytes())["key"]["artifact"] == "forest"
             ).unlink()
        assert store.flush(cache) == 1
        assert len(unpacked) == 1

    def test_verify_clean_and_corrupt(self, net, tmp_path):
        store, _ = self._populated(net, tmp_path)
        n = store.n_entries
        report = store.verify()
        assert report == {"checked": n, "ok": n, "corrupt": 0}
        victim = _entry_paths(store)[-1]
        victim.write_bytes(victim.read_bytes()[:-5])
        report = store.verify()
        assert report["corrupt"] == 1 and report["ok"] == n - 1
        assert store.n_entries == n - 1  # quarantined out of the serving set

    def test_gc_trims_oldest_and_purges_quarantine(self, net, tmp_path):
        import os
        import time

        store, _ = self._populated(net, tmp_path)
        paths = _entry_paths(store)
        assert len(paths) >= 2
        old, fresh = paths[0], paths[-1]
        now = time.time()
        os.utime(old, (now - 1000, now - 1000))
        (store._quarantine / "junk").write_text("x")
        report = store.gc(max_entries=len(paths) - 1)
        assert report["removed"] == 1 and report["quarantine_purged"] == 1
        assert not old.exists() and fresh.exists()

    def test_gc_max_bytes(self, net, tmp_path):
        store, _ = self._populated(net, tmp_path)
        report = store.gc(max_bytes=0)
        assert report["kept"] == 0
        assert store.n_entries == 0

    def test_gc_rejects_negative_budgets(self, store):
        with pytest.raises(ConfigError):
            store.gc(max_entries=-1)
        with pytest.raises(ConfigError):
            store.gc(max_bytes=-1)

    def test_clear(self, net, tmp_path):
        store, _ = self._populated(net, tmp_path)
        n = store.n_entries
        assert store.clear() == n > 0
        assert store.n_entries == 0
        assert (store.root / "plan-store.json").exists()  # marker survives

    def test_stats_shape(self, net, tmp_path):
        store, _ = self._populated(net, tmp_path)
        s = store.stats()
        assert s["entries"] == s["tours"] + s["forests"] == store.n_entries
        assert s["bytes"] > 0 and s["unreadable"] == 0
        assert s["session"]["writes"] == s["entries"]


class TestLockContention:
    """The advisory-lock tallies behind ``repro cache stats``.

    ``flock`` locks hang off the open file description, so a second fd on
    the lock file contends even within one process — which lets the
    cross-process contention path (a fleet shard waiting on another's
    write) be pinned deterministically without spawning processes.
    """

    def test_uncontended_fast_path_not_counted_as_waiting(self, net, store):
        cov = frozenset({0, 1})
        store.put_tours("fp", cov, False, plan_tours(net, cov))
        session = store.stats()["session"]
        assert session["lock_acquires"] >= 1
        assert session["lock_contended"] == 0
        assert session["lock_wait_s"] == 0.0

    def test_contended_lock_wait_is_timed_and_tallied(self, net, store):
        fcntl = pytest.importorskip("fcntl")
        import threading
        import time

        cov = frozenset({0, 1})
        tours = plan_tours(net, cov)
        with (store.root / ".lock").open("a") as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            writer = threading.Thread(
                target=store.put_tours, args=("fp", cov, False, tours))
            writer.start()
            time.sleep(0.3)  # hold the store lock while the write waits
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
            writer.join(timeout=10)
        assert not writer.is_alive()
        session = store.stats()["session"]
        assert session["lock_contended"] >= 1
        assert session["lock_wait_s"] >= 0.1
        assert session["lock_wait_s"] >= session["lock_wait_max_s"] > 0.0
        assert store.get_tours("fp", cov, False) == tours
