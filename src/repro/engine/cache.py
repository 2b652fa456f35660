"""Content-addressed result cache / artifact store of the campaign engine.

Each cached artifact is one JSON file on disk whose name is the SHA-256 of a
canonical JSON rendering of everything the result depends on::

    key = sha256({"namespace", "version", "spec", "seed"})

* ``namespace`` separates workload families (defect campaigns, calibration,
  yield-loss points) sharing one cache directory,
* ``version`` is the library version (any release invalidates the cache),
* ``spec`` is the task's own JSON description -- changing any part of the
  task spec (deltas, stimulus, defect id, sampling mode, ...) changes the key,
* ``seed`` is the per-task seed material, omitted for deterministic tasks.

Repeated campaign/calibration runs with identical specs are therefore
near-free: the engine replays the stored artifacts instead of simulating.

Eviction policy
---------------
An unbounded artifact store eventually fills the disk, so the cache supports
three complementary bounds, all optional:

* ``max_age`` (seconds): artifacts expire a fixed time after creation.  The
  creation timestamp is stored *inside* the artifact, so expiry survives
  process restarts; expired artifacts are treated as misses on read and
  deleted.
* ``max_bytes``: a size budget over the whole cache directory.  When a write
  pushes the directory over budget, least-recently-*used* artifacts are
  deleted until it fits.  Recency is the file's mtime, which :meth:`get`
  refreshes on every hit (LRU-on-read), so hot artifacts survive while stale
  ones age out.
* :meth:`evict` can also be called directly for an explicit GC pass.

Both bounds are enforced opportunistically on :meth:`put`; a cache opened
read-only never deletes anything except artifacts it observes to be expired.

Artifact format
---------------
Every artifact is exactly one ``<key>.json`` file; float lists are stored
inline (``json`` round-trips float64 exactly and rejects NaN/Infinity).  An
entry carrying a ``"sidecars"`` field was written by an older release that
kept long float lists in ``<key>.<i>.npy`` files; it reads as a miss and the
next :meth:`ResultCache.put` overwrites it.  Such ``.npy`` files are never
written now, so :meth:`ResultCache.evict` and :meth:`ResultCache.clear`
sweep any that are older than :data:`TMP_GRACE_SECONDS`.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..circuit.errors import EngineError

#: Sentinel distinguishing "no cached entry" from a cached ``None`` result.
MISS = object()

#: ``.tmp`` files (and old-format ``.npy`` sidecars) older than this many
#: seconds are presumed leftovers and are swept by
#: :meth:`ResultCache.evict`/:meth:`ResultCache.clear`; younger ones may
#: belong to an in-flight :meth:`ResultCache.put` and are left alone.
TMP_GRACE_SECONDS = 600.0


def canonical_json(value: Any) -> str:
    """Deterministic JSON rendering used for cache keys.

    NaN/Infinity are rejected (``allow_nan=False``): they are not JSON, and
    a key minted from them would be unreadable by any strict parser
    downstream (the SQLite warehouse included).
    """
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise EngineError(
            f"task spec is not JSON-serialisable: {exc}") from exc


class ResultCache:
    """JSON-on-disk artifact store keyed by content hashes.

    Parameters
    ----------
    cache_dir:
        Directory holding the artifacts (created on demand).
    namespace:
        Workload family; part of every key.
    version:
        Code-version token mixed into every key; defaults to the installed
        :mod:`repro` version so upgrading the library invalidates the cache.
    max_bytes:
        Optional size budget for the cache directory; writes that exceed it
        evict least-recently-used artifacts (see :meth:`evict`).
    max_age:
        Optional artifact lifetime in seconds, measured from creation.
        Expired artifacts read as misses (and are deleted on sight); they are
        also removed by the eviction pass that runs on every write.
    """

    def __init__(self, cache_dir: str, namespace: str = "default",
                 version: Optional[str] = None,
                 max_bytes: Optional[int] = None,
                 max_age: Optional[float] = None) -> None:
        if not cache_dir:
            raise EngineError("cache_dir must be a non-empty path")
        if max_bytes is not None and max_bytes <= 0:
            raise EngineError(f"max_bytes must be positive, got {max_bytes}")
        if max_age is not None and max_age <= 0:
            raise EngineError(f"max_age must be positive, got {max_age}")
        self.cache_dir = str(cache_dir)
        self.namespace = namespace
        if version is None:
            from .. import __version__
            version = __version__
        self.version = version
        self.max_bytes = max_bytes
        self.max_age = max_age
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Amortised eviction bookkeeping: a (conservatively over-counted)
        # running byte total and the time of the last age sweep, so put()
        # does not scan the whole directory on every write.
        self._approx_bytes: Optional[int] = None
        self._last_age_sweep = 0.0

    # ------------------------------------------------------------------- keys
    def key_for(self, spec: Mapping[str, Any],
                seed_material: Optional[str] = None) -> str:
        payload = {"namespace": self.namespace, "version": self.version,
                   "spec": spec, "seed": seed_material}
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}.json")

    # ---------------------------------------------------------------- storage
    def get(self, key: str) -> Any:
        """Stored result for ``key``, or the :data:`MISS` sentinel.

        A hit refreshes the artifact's mtime so size-budget eviction removes
        least-recently-*used* artifacts first (LRU-on-read).
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return MISS
        except (OSError, ValueError):
            # A torn or corrupt artifact (bad JSON, or not even UTF-8) is
            # treated as a miss and overwritten.
            self.misses += 1
            return MISS
        if not isinstance(entry, dict):
            # Valid JSON but not an artifact (externally overwritten): miss.
            self.misses += 1
            return MISS
        if self._expired(entry):
            self._unlink(path)
            self.misses += 1
            return MISS
        if "sidecars" in entry:
            # Old-format entry whose float lists live in ``.npy`` sidecars:
            # a miss, overwritten under the same key by the next put.
            self.misses += 1
            return MISS
        self.hits += 1
        try:
            os.utime(path, None)
        except OSError:
            pass  # recency tracking is best-effort
        return entry.get("result")

    def put(self, key: str, result: Any, task_id: Optional[str] = None,
            spec: Optional[Mapping[str, Any]] = None) -> None:
        """Store one artifact atomically (write + rename).

        Triggers an eviction pass when the running size total exceeds
        ``max_bytes`` or an age sweep is due (see :meth:`_eviction_due`).
        """
        os.makedirs(self.cache_dir, exist_ok=True)
        entry = {"key": key, "task_id": task_id, "spec": spec,
                 "result": result, "created": time.time()}
        try:
            body = json.dumps(entry, sort_keys=True, allow_nan=False)
        except (TypeError, ValueError) as exc:
            raise EngineError(
                f"result of task {task_id!r} is not JSON-serialisable; "
                f"provide a codec to the engine: {exc}") from exc
        fd, tmp_path = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(body)
            self._publish(tmp_path, self._path(key))
        except BaseException:
            # Any crash between mkstemp and the rename (not just OSError --
            # an interrupt or injected failure too) must not leak the temp
            # file; leftovers of a killed *process* are swept by evict().
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        if self._eviction_due(len(body)):
            self.evict()

    @staticmethod
    def _publish(tmp_path: str, destination: str) -> None:
        """Atomically move a finished temp file onto its final key path.

        Concurrent writers are legal: the cache is content-addressed, so
        two processes (or threads) racing on one key are by construction
        writing the same artifact, and whoever renames last wins with
        identical content.  ``os.replace`` is already a silent overwrite on
        POSIX; on platforms where replacing a destination that another
        writer is simultaneously creating/holding raises instead, the loser
        discards its temp file and treats the winner's artifact as its own
        successful put.
        """
        try:
            os.replace(tmp_path, destination)
        except OSError:
            if not os.path.exists(destination):
                raise  # a real failure, not a lost race
            try:
                os.unlink(tmp_path)
            except OSError:
                pass

    def _eviction_due(self, bytes_written: int) -> bool:
        """Whether this write warrants a (full-scan) eviction pass.

        The size budget is tracked with a running total seeded by one
        directory scan and bumped per write; it only over-counts (overwrites
        and external deletions are not subtracted), which at worst triggers
        an early pass -- :meth:`evict` re-measures exactly.  Age sweeps are
        rate-limited to one per tenth of ``max_age``; in between, expired
        artifacts are still deleted lazily by :meth:`get`.
        """
        if self.max_bytes is not None:
            if self._approx_bytes is None:
                self._approx_bytes = self.total_bytes()
            else:
                self._approx_bytes += bytes_written
            if self._approx_bytes > self.max_bytes:
                return True
        if self.max_age is not None and \
                time.time() - self._last_age_sweep >= self.max_age / 10.0:
            return True
        return False

    # --------------------------------------------------------------- eviction
    def _expired(self, entry: Mapping[str, Any]) -> bool:
        if self.max_age is None:
            return False
        created = entry.get("created")
        if not isinstance(created, (int, float)):
            return False  # pre-eviction artifact without a timestamp
        return time.time() - created > self.max_age

    def _unlink(self, path: str) -> bool:
        removed = self._remove_artifact(path)
        if removed:
            self.evictions += 1
        return removed

    @staticmethod
    def _remove_artifact(path: str) -> bool:
        """Delete one JSON entry; True when it went."""
        try:
            os.unlink(path)
        except OSError:
            return False
        return True

    def _artifact_stats(self) -> List[Tuple[float, int, str]]:
        """``(mtime, size, path)`` of every JSON artifact, oldest first."""
        try:
            names = os.listdir(self.cache_dir)
        except FileNotFoundError:
            return []
        stats = []
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.cache_dir, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            stats.append((st.st_mtime, st.st_size, path))
        stats.sort()
        return stats

    def _sweep_stale_files(self, grace: float = TMP_GRACE_SECONDS) -> int:
        """Remove leftovers older than ``grace`` seconds: ``.tmp`` files of
        a crashed writer and old-format ``.npy`` sidecars.

        A killed process can die between ``mkstemp`` and ``os.replace``;
        nothing references the temp file, so without this sweep it is
        invisible to the size budget and never reclaimed.  ``.npy`` files
        are never written by this version, so each one is a leftover.  Young
        files may belong to a concurrent writer and are kept.
        """
        try:
            names = os.listdir(self.cache_dir)
        except FileNotFoundError:
            return 0
        cutoff = time.time() - grace
        removed = 0
        for name in names:
            if not name.endswith((".tmp", ".npy")):
                continue
            path = os.path.join(self.cache_dir, name)
            try:
                if os.stat(path).st_mtime >= cutoff:
                    continue
                os.unlink(path)
            except OSError:
                continue
            removed += 1
        return removed

    def total_bytes(self) -> int:
        """Current on-disk size of all artifacts."""
        return sum(size for _, size, _ in self._artifact_stats())

    #: ``put`` writes artifacts with ``sort_keys=True``, so ``"created"`` is
    #: the first key and a bounded prefix read suffices during GC sweeps.
    _CREATED_PREFIX_RE = re.compile(r'^\{\s*"created":\s*(-?[0-9.eE+]+)')

    def _created_of(self, path: str) -> Optional[float]:
        """Stored creation timestamp of one artifact, or None.

        Reads only the first few bytes in the common case (our own sorted
        JSON layout) so an eviction sweep over a large cache does not parse
        every result payload; artifacts with an unexpected layout fall back
        to a full parse.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                match = self._CREATED_PREFIX_RE.match(handle.read(64))
                if match:
                    try:
                        return float(match.group(1))
                    except ValueError:
                        return None
                handle.seek(0)
                entry = json.load(handle)
        except (OSError, ValueError):
            # Unreadable, non-UTF-8 or non-JSON file: no timestamp.
            return None
        if not isinstance(entry, Mapping):
            return None
        created = entry.get("created")
        return created if isinstance(created, (int, float)) else None

    def evict(self) -> int:
        """Enforce ``max_age`` then ``max_bytes``; returns artifacts removed.

        ``max_age`` removal first keys off the file mtime: because the mtime
        is refreshed on reads it is never older than the creation time, so an
        artifact whose mtime has aged past ``max_age`` is guaranteed to be
        expired and is unlinked without opening it.  Artifacts with a fresh
        mtime may *still* be expired -- reads refresh the mtime of an
        artifact created long ago (LRU-on-read) -- so the sweep then checks
        their stored creation timestamps; a GC pass therefore removes every
        expired artifact, not only the ones that happened to sit idle.
        ``max_bytes`` removal then drops least-recently-used artifacts until
        the directory is below a low-water mark slightly under the budget
        (so steady writes do not re-trigger a scan every time).  Every pass
        also sweeps stale ``.tmp`` and ``.npy`` leftovers (see
        :meth:`_sweep_stale_files`).
        """
        removed = self._sweep_stale_files()
        stats = self._artifact_stats()
        if self.max_age is not None:
            cutoff = time.time() - self.max_age
            fresh = []
            for mtime, size, path in stats:
                if mtime < cutoff:
                    removed += self._unlink(path)
                    continue
                created = self._created_of(path)
                if created is not None and created < cutoff:
                    removed += self._unlink(path)
                else:
                    fresh.append((mtime, size, path))
            stats = fresh
            self._last_age_sweep = time.time()
        total = sum(size for _, size, _ in stats)
        if self.max_bytes is not None and total > self.max_bytes:
            # Trim below a low-water mark (95% of the budget), not to the
            # budget exactly: a cache sitting at capacity would otherwise
            # re-trigger a full directory scan on every subsequent write.
            target = int(self.max_bytes * 0.95)
            for mtime, size, path in stats:
                if total <= target:
                    break
                if self._unlink(path):
                    removed += 1
                    total -= size
        self._approx_bytes = total
        return removed

    # ------------------------------------------------------------- management
    def __len__(self) -> int:
        try:
            return sum(1 for name in os.listdir(self.cache_dir)
                       if name.endswith(".json"))
        except FileNotFoundError:
            return 0

    def keys(self) -> List[str]:
        try:
            return sorted(name[:-len(".json")]
                          for name in os.listdir(self.cache_dir)
                          if name.endswith(".json"))
        except FileNotFoundError:
            return []

    def clear(self) -> int:
        """Delete every artifact (and stale crash leftovers); returns the
        number of artifacts removed."""
        removed = 0
        for key in self.keys():
            if self._remove_artifact(self._path(key)):
                removed += 1
        self._sweep_stale_files()
        self._approx_bytes = 0
        return removed

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "artifacts": len(self), "evictions": self.evictions}


def callable_token(fn: Any) -> Optional[str]:
    """Stable cache-key token for a callable, or None if it has none.

    Only callables with a qualified name (functions, classes) can be
    content-addressed; instances with ``__call__`` or partials have only an
    address-bearing repr, so callers must skip caching for them.
    """
    qualname = getattr(fn, "__qualname__", None)
    module = getattr(fn, "__module__", None)
    if qualname and module:
        return f"{module}.{qualname}"
    return None


def factory_token(fn: Any) -> Optional[str]:
    """Cache-key token for an ADC/DUT factory.

    Factories that carry declarative state (e.g.
    :class:`~repro.adc.sar_adc.DutAdcFactory`) expose a ``token`` attribute
    that folds the state's fingerprint into the key; plain callables fall
    back to :func:`callable_token`.  Returns None (caching disabled) only
    when neither applies.
    """
    token = getattr(fn, "token", None)
    if token is not None:
        return str(token)
    return callable_token(fn)
