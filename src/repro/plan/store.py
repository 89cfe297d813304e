"""Crash-safe, content-addressed on-disk plan-artifact store (tier 2).

The in-memory :class:`~repro.plan.cache.PlanArtifactCache` dies with its
process — serve workers, CLI runs and sweep jobs all cold-start after any
restart even though the artifacts they rebuild (q-rooted MSFs, base tours,
2-opt refinements) are pure in ``(geometry fingerprint, coverage set,
refine flag)``. This module persists those artifacts under that same key so
a fresh process replans warm: the pipeline consults the store on an
in-memory miss and writes computed artifacts back through it
(:func:`repro.plan.pipeline.plan_tours`), and serve workers pre-load their
caches from it at pool boot (:func:`~PlanArtifactStore.warm`).

Durability model
----------------
* **Atomic writes** — each entry is serialised to a temp file in the same
  directory, fsynced, then published with ``os.replace``. A crash mid-write
  leaves either the previous entry or a stray temp file, never a torn
  entry; readers see complete files only.
* **Per-entry checksums** — the entry records a SHA-256 over the canonical
  JSON of its key + payload. Any corruption (bit-flips, truncation,
  tampering, partial storage-level writes) fails the checksum on read.
* **Quarantine, never serve** — a corrupt or undecodable entry is moved
  into ``quarantine/`` and reported as a miss; the planner recomputes and
  rewrites it. ``repro.check`` injects exactly these faults and asserts the
  replan is correct.
* **Advisory file locking** — mutating operations take an exclusive
  ``fcntl.flock`` on ``<root>/.lock`` so concurrent processes (parallel
  executor jobs, serve pool workers) interleave safely. Readers don't lock:
  publication is atomic, so they observe either a complete entry or none.
  On platforms without ``fcntl`` the lock degrades to a no-op (single
  process still fully safe).

Layout: ``<root>/plan-store.json`` (marker), ``objects/<dd>/<digest>.json``
(two-hex-char fan-out), ``quarantine/``, ``.lock``. The marker guards
destructive operations — ``clear``/``gc`` refuse to run on a directory this
module didn't initialise.

Instrumentation: store traffic lands in the ``plan.cache.disk.{hits,
misses, writes, corrupt, bytes}`` counters and bulk operations (warm,
flush, verify, gc, clear) run under a ``plan.store`` span (see
``docs/OBSERVABILITY.md``). Independent of any ``obs`` wiring the store
keeps thread-safe lifetime tallies for ``repro cache stats``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import ConfigError
from repro.graphs.forest import RootedForest
from repro.obs.instrument import Instrumentation, ensure
from repro.tsp.tour import Tour

try:  # pragma: no cover - import guard exercised only on exotic platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plan.cache import PlanArtifactCache

__all__ = ["PlanArtifactStore"]

#: Envelope kind of one on-disk entry.
_ENTRY_KIND = "plan-artifact"
#: Bumped whenever the entry structure changes incompatibly; a version
#: mismatch reads as corrupt (quarantined, recomputed) rather than crashing.
_ENTRY_VERSION = 1
#: Marker file that identifies a directory as a plan store.
_MARKER_NAME = "plan-store.json"
_MARKER_KIND = "plan-artifact-store"


def _canonical(data: Any) -> bytes:
    """Canonical JSON bytes: the checksum and digest base representation."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def _key_dict(fingerprint: str, coverage: frozenset[int], artifact: str,
              refine: bool | None) -> dict[str, Any]:
    key: dict[str, Any] = {
        "fingerprint": str(fingerprint),
        "coverage": sorted(int(s) for s in coverage),
        "artifact": artifact,
    }
    if refine is not None:
        key["refine"] = bool(refine)
    return key


def _tours_payload(tours: tuple[Tour, ...]) -> dict[str, Any]:
    return {"tours": [{"depot": int(t.depot), "order": [int(v) for v in t.order]}
                      for t in tours]}


def _tours_from_payload(payload: dict[str, Any]) -> tuple[Tour, ...]:
    return tuple(
        Tour(depot=int(t["depot"]), order=tuple(int(v) for v in t["order"]))
        for t in payload["tours"])


def _forest_payload(forest: RootedForest) -> dict[str, Any]:
    return {
        "roots": [int(r) for r in forest.roots],
        "trees": [[[int(u), int(v)] for u, v in tree] for tree in forest.trees],
    }


def _forest_from_payload(payload: dict[str, Any]) -> RootedForest:
    return RootedForest(
        roots=tuple(int(r) for r in payload["roots"]),
        trees=tuple(tuple((int(u), int(v)) for u, v in tree)
                    for tree in payload["trees"]))


class PlanArtifactStore:
    """Disk tier of the two-tier plan-artifact cache.

    Parameters
    ----------
    root:
        Store directory. Created (with marker) if absent; an existing
        non-empty directory that is *not* a plan store is rejected with
        :class:`~repro.errors.ConfigError` so destructive maintenance
        commands can never be pointed at arbitrary data.

    Notes
    -----
    The instance is safe to share across threads (tallies and lock-file
    handling are internally synchronised) and the directory is safe to
    share across processes (advisory locking + atomic publication). All
    artifact methods take an optional ``obs`` and record the
    ``plan.cache.disk.*`` counters on it.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._objects = self.root / "objects"
        self._quarantine = self.root / "quarantine"
        self._lockfile = self.root / ".lock"
        self._tally_lock = threading.Lock()
        self._tallies = {"hits": 0, "misses": 0, "writes": 0, "corrupt": 0,
                         "bytes_written": 0, "lock_acquires": 0,
                         "lock_contended": 0, "lock_wait_s": 0.0,
                         "lock_wait_max_s": 0.0}
        marker = self.root / _MARKER_NAME
        if self.root.exists():
            if not self.root.is_dir():
                raise ConfigError(f"PlanArtifactStore: {self.root} is not a directory")
            if not marker.exists() and any(self.root.iterdir()):
                raise ConfigError(
                    f"PlanArtifactStore: {self.root} exists, is not empty and "
                    f"has no {_MARKER_NAME} marker — refusing to treat it as "
                    f"a plan store")
        self._objects.mkdir(parents=True, exist_ok=True)
        self._quarantine.mkdir(parents=True, exist_ok=True)
        if not marker.exists():
            self._atomic_write(marker, _canonical(
                {"kind": _MARKER_KIND, "version": _ENTRY_VERSION}) + b"\n")

    # ------------------------------------------------------------- internals
    def _count(self, **deltas: int) -> None:
        with self._tally_lock:
            for name, d in deltas.items():
                self._tallies[name] += d

    @contextlib.contextmanager
    def _locked(self) -> Iterator[None]:
        """Exclusive advisory lock over the store directory (no-op where
        ``fcntl`` is unavailable).

        Tries the lock non-blocking first: an immediate grab is the
        uncontended fast path; failure means another process (a fleet
        shard, a parallel runner) holds it, so the blocking wait is timed
        and tallied — ``lock_contended`` / ``lock_wait_s`` in
        :meth:`stats` are how cross-shard store contention is diagnosed
        (``repro cache stats``).
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        with self._lockfile.open("a") as fh:
            contended = False
            waited = 0.0
            try:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                contended = True
                t0 = time.perf_counter()
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
                waited = time.perf_counter() - t0
            with self._tally_lock:
                self._tallies["lock_acquires"] += 1
                if contended:
                    self._tallies["lock_contended"] += 1
                    self._tallies["lock_wait_s"] += waited
                    self._tallies["lock_wait_max_s"] = max(
                        self._tallies["lock_wait_max_s"], waited)
            try:
                yield
            finally:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    @staticmethod
    def _atomic_write(path: Path, blob: bytes) -> None:
        """Publish ``blob`` at ``path`` via temp file + fsync + rename.

        The temp name must not end in ``.json``: entry scans glob
        ``*.json`` and must never observe (or quarantine) an in-flight
        write from another process.
        """
        tmp = path.parent / f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp"
        try:
            with tmp.open("wb") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            with contextlib.suppress(OSError):
                tmp.unlink()

    def _digest(self, key: dict[str, Any]) -> str:
        return hashlib.sha256(_canonical(key)).hexdigest()

    def _path_of(self, digest: str) -> Path:
        return self._objects / digest[:2] / f"{digest}.json"

    def _entry_blob(self, key: dict[str, Any], payload: dict[str, Any]) -> bytes:
        checksum = hashlib.sha256(
            _canonical({"key": key, "payload": payload})).hexdigest()
        entry = {"kind": _ENTRY_KIND, "version": _ENTRY_VERSION,
                 "key": key, "checksum": checksum, "payload": payload}
        return json.dumps(entry, sort_keys=True).encode() + b"\n"

    def _quarantine_entry(self, path: Path, obs: Instrumentation) -> None:
        """Move a bad entry out of the serving set (atomically; a racing
        reader either still sees it — and re-detects — or gets a miss)."""
        dest = self._quarantine / f"{os.getpid()}-{path.name}"
        with self._locked():
            with contextlib.suppress(FileNotFoundError, OSError):
                os.replace(path, dest)
        self._count(corrupt=1)
        obs.incr("plan.cache.disk.corrupt")

    def _decode_entry(self, blob: bytes,
                      expect_key: dict[str, Any] | None) -> dict[str, Any]:
        """Parse + integrity-check one entry; raises ``ValueError`` on any
        corruption (malformed JSON, wrong kind/version, checksum mismatch,
        key mismatch — an entry stored under the wrong name)."""
        entry = json.loads(blob)
        if not isinstance(entry, dict) or entry.get("kind") != _ENTRY_KIND:
            raise ValueError("not a plan-artifact entry")
        if entry.get("version") != _ENTRY_VERSION:
            raise ValueError(f"unsupported entry version {entry.get('version')}")
        key, payload = entry.get("key"), entry.get("payload")
        if not isinstance(key, dict) or not isinstance(payload, dict):
            raise ValueError("missing key/payload")
        checksum = hashlib.sha256(
            _canonical({"key": key, "payload": payload})).hexdigest()
        if checksum != entry.get("checksum"):
            raise ValueError("checksum mismatch")
        if expect_key is not None and key != expect_key:
            raise ValueError("entry key does not match its address")
        return entry

    def _get(self, key: dict[str, Any], obs: Instrumentation | None):
        o = ensure(obs)
        path = self._path_of(self._digest(key))
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            self._count(misses=1)
            o.incr("plan.cache.disk.misses")
            return None
        try:
            entry = self._decode_entry(blob, key)
            if key["artifact"] == "tours":
                value: Any = _tours_from_payload(entry["payload"])
            else:
                value = _forest_from_payload(entry["payload"])
        except Exception:
            # Malformed, truncated, bit-flipped or mis-keyed: quarantine and
            # report a miss — a corrupt artifact is NEVER served.
            self._quarantine_entry(path, o)
            self._count(misses=1)
            o.incr("plan.cache.disk.misses")
            return None
        # Touch for gc recency (best-effort; never blocks a hit).
        with contextlib.suppress(OSError):
            os.utime(path)
        self._count(hits=1)
        o.incr("plan.cache.disk.hits")
        return value

    def _put(self, key: dict[str, Any], payload: dict[str, Any],
             obs: Instrumentation | None) -> Path:
        o = ensure(obs)
        blob = self._entry_blob(key, payload)
        path = self._path_of(self._digest(key))
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._locked():
            self._atomic_write(path, blob)
        self._count(writes=1, bytes_written=len(blob))
        o.incr("plan.cache.disk.writes")
        o.incr("plan.cache.disk.bytes", len(blob))
        return path

    def _iter_entries(self) -> Iterator[Path]:
        if not self._objects.exists():
            return
        for sub in sorted(self._objects.iterdir()):
            if sub.is_dir():
                for p in sorted(sub.glob("*.json")):
                    yield p

    # -------------------------------------------------------------- artifacts
    def get_tours(self, fingerprint: str, coverage: frozenset[int],
                  refine: bool, *,
                  obs: Instrumentation | None = None) -> tuple[Tour, ...] | None:
        """Stored tour set for the key, or ``None`` (miss / quarantined)."""
        return self._get(_key_dict(fingerprint, coverage, "tours", refine), obs)

    def put_tours(self, fingerprint: str, coverage: frozenset[int],
                  refine: bool, tours: tuple[Tour, ...], *,
                  obs: Instrumentation | None = None) -> Path:
        return self._put(_key_dict(fingerprint, coverage, "tours", refine),
                         _tours_payload(tuple(tours)), obs)

    def get_forest(self, fingerprint: str, coverage: frozenset[int], *,
                   obs: Instrumentation | None = None) -> RootedForest | None:
        """Stored q-rooted MSF for the key, or ``None`` (miss / quarantined)."""
        return self._get(_key_dict(fingerprint, coverage, "forest", None), obs)

    def put_forest(self, fingerprint: str, coverage: frozenset[int],
                   forest: RootedForest, *,
                   obs: Instrumentation | None = None) -> Path:
        return self._put(_key_dict(fingerprint, coverage, "forest", None),
                         _forest_payload(forest), obs)

    # ------------------------------------------------------------- bulk ops
    def warm(self, cache: "PlanArtifactCache", *,
             obs: Instrumentation | None = None) -> int:
        """Load every readable entry into ``cache`` (worker pool boot path).

        Corrupt entries are quarantined and skipped. Returns the number of
        artifacts loaded.
        """
        o = ensure(obs)
        loaded = 0
        with o.span("plan.store", op="warm"):
            for path in list(self._iter_entries()):
                try:
                    entry = self._decode_entry(path.read_bytes(), None)
                    key = entry["key"]
                    cov = frozenset(int(s) for s in key["coverage"])
                    if key["artifact"] == "tours":
                        cache.put_tours(key["fingerprint"], cov,
                                        bool(key["refine"]),
                                        _tours_from_payload(entry["payload"]))
                    elif key["artifact"] == "forest":
                        cache.put_forest(key["fingerprint"], cov,
                                         _forest_from_payload(entry["payload"]))
                    else:
                        raise ValueError(f"unknown artifact {key['artifact']!r}")
                except FileNotFoundError:
                    continue  # raced with gc/clear in another process
                except Exception:
                    self._quarantine_entry(path, o)
                    continue
                loaded += 1
        return loaded

    def flush(self, cache: "PlanArtifactCache", *,
              obs: Instrumentation | None = None) -> int:
        """Write ``cache``'s artifacts to disk (drain path); returns the
        number of entries written. Entries already on disk are skipped —
        artifacts are content-addressed, so an existing entry is current by
        construction. The existence test runs on the cache's keys, so only
        the artifacts actually written are read back (and, for forests,
        rebuilt); each such read counts as a cache hit."""
        o = ensure(obs)
        written = 0
        keys = cache.keys()
        with o.span("plan.store", op="flush"):
            for fp, cov in keys["forests"]:
                if self._path_of(self._digest(
                        _key_dict(fp, cov, "forest", None))).exists():
                    continue
                forest = cache.get_forest(fp, cov)
                if forest is not None:  # None: evicted since keys()
                    self.put_forest(fp, cov, forest, obs=obs)
                    written += 1
            for fp, cov, refine in keys["tours"]:
                if self._path_of(self._digest(
                        _key_dict(fp, cov, "tours", refine))).exists():
                    continue
                tours = cache.get_tours(fp, cov, refine)
                if tours is not None:
                    self.put_tours(fp, cov, refine, tours, obs=obs)
                    written += 1
        return written

    def verify(self, *, obs: Instrumentation | None = None) -> dict[str, int]:
        """Integrity-scan every entry; corrupt ones are quarantined.

        Returns ``{"checked": n, "ok": n, "corrupt": n}``.
        """
        o = ensure(obs)
        checked = ok = corrupt = 0
        with o.span("plan.store", op="verify"):
            for path in list(self._iter_entries()):
                checked += 1
                try:
                    entry = self._decode_entry(path.read_bytes(), None)
                    if entry["key"]["artifact"] == "tours":
                        _tours_from_payload(entry["payload"])
                    else:
                        _forest_from_payload(entry["payload"])
                    expected = self._digest(entry["key"])
                    if path.name != f"{expected}.json":
                        raise ValueError("entry stored under wrong address")
                except FileNotFoundError:
                    checked -= 1
                    continue
                except Exception:
                    self._quarantine_entry(path, o)
                    corrupt += 1
                    continue
                ok += 1
        return {"checked": checked, "ok": ok, "corrupt": corrupt}

    def gc(self, *, max_entries: int | None = None,
           max_bytes: int | None = None,
           obs: Instrumentation | None = None) -> dict[str, int]:
        """Trim the store to the given budgets, oldest-read first.

        Recency is the file mtime (reads touch it). Quarantined entries are
        always purged — they exist only for post-mortem inspection between
        maintenance runs. Returns removal/retention counts.
        """
        if max_entries is not None and max_entries < 0:
            raise ConfigError(f"gc: max_entries must be >= 0, got {max_entries}")
        if max_bytes is not None and max_bytes < 0:
            raise ConfigError(f"gc: max_bytes must be >= 0, got {max_bytes}")
        o = ensure(obs)
        removed = purged = 0
        with o.span("plan.store", op="gc"), self._locked():
            for junk in list(self._quarantine.glob("*")):
                with contextlib.suppress(OSError):
                    junk.unlink()
                    purged += 1
            entries = []
            for path in self._iter_entries():
                with contextlib.suppress(OSError):
                    st = path.stat()
                    entries.append((st.st_mtime, st.st_size, path))
            entries.sort()  # oldest first
            total = len(entries)
            total_bytes = sum(size for _, size, _ in entries)
            drop = 0
            if max_entries is not None:
                drop = max(drop, total - max_entries)
            if max_bytes is not None:
                b = total_bytes
                while drop < total and b > max_bytes:
                    b -= entries[drop][1]
                    drop += 1
            for _, _, path in entries[:drop]:
                with contextlib.suppress(OSError):
                    path.unlink()
                    removed += 1
        return {"removed": removed, "kept": total - removed,
                "quarantine_purged": purged}

    def clear(self, *, obs: Instrumentation | None = None) -> int:
        """Delete every entry (and quarantined file); returns the count."""
        o = ensure(obs)
        removed = 0
        with o.span("plan.store", op="clear"), self._locked():
            for path in list(self._iter_entries()) + list(self._quarantine.glob("*")):
                with contextlib.suppress(OSError):
                    path.unlink()
                    removed += 1
        return removed

    # ------------------------------------------------------------ inspection
    @property
    def n_entries(self) -> int:
        return sum(1 for _ in self._iter_entries())

    def stats(self) -> dict[str, Any]:
        """Point-in-time store summary plus this process's traffic tallies."""
        entries = 0
        total_bytes = 0
        kinds = {"tours": 0, "forest": 0, "unreadable": 0}
        for path in self._iter_entries():
            with contextlib.suppress(OSError):
                total_bytes += path.stat().st_size
            entries += 1
            try:
                entry = self._decode_entry(path.read_bytes(), None)
                kinds[entry["key"]["artifact"]] = \
                    kinds.get(entry["key"]["artifact"], 0) + 1
            except Exception:
                kinds["unreadable"] += 1
        with self._tally_lock:
            session = dict(self._tallies)
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": total_bytes,
            "tours": kinds["tours"],
            "forests": kinds["forest"],
            "unreadable": kinds["unreadable"],
            "quarantined": sum(1 for _ in self._quarantine.glob("*")),
            "session": session,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlanArtifactStore(root={str(self.root)!r}, entries={self.n_entries})"
