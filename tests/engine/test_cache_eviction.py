"""Tests for :class:`ResultCache` eviction (max_bytes / max_age / LRU)."""

import json
import os
import time

import pytest

from repro.circuit import EngineError
from repro.engine import MISS, ResultCache


def _put(cache, i, pad=0):
    key = cache.key_for({"i": i})
    cache.put(key, {"i": i, "pad": "x" * pad})
    return key


def _backdate(cache, key, seconds):
    """Shift an artifact's mtime into the past (simulates idle time)."""
    path = os.path.join(cache.cache_dir, f"{key}.json")
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


def _rewrite_created(cache, key, seconds_ago):
    """Rewrite the stored creation timestamp (simulates elapsed wall time)."""
    path = os.path.join(cache.cache_dir, f"{key}.json")
    with open(path, "r", encoding="utf-8") as handle:
        entry = json.load(handle)
    entry["created"] = time.time() - seconds_ago
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entry, handle)


class TestValidation:
    def test_rejects_non_positive_max_bytes(self, tmp_path):
        with pytest.raises(EngineError):
            ResultCache(str(tmp_path), max_bytes=0)

    def test_rejects_non_positive_max_age(self, tmp_path):
        with pytest.raises(EngineError):
            ResultCache(str(tmp_path), max_age=-1.0)


class TestMaxBytes:
    def test_under_budget_keeps_everything(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_bytes=10_000_000)
        keys = [_put(cache, i) for i in range(5)]
        assert len(cache) == 5
        assert all(cache.get(k) is not MISS for k in keys)
        assert cache.evictions == 0

    def test_over_budget_evicts_least_recently_used_first(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        old = _put(cache, 0, pad=200)
        young = _put(cache, 1, pad=200)
        _backdate(cache, old, seconds=100)
        _backdate(cache, young, seconds=10)

        # Budget holds two artifacts (with headroom for timestamp-length
        # jitter) but not three: the write must evict exactly one, and it
        # must be the least recently used.
        bounded = ResultCache(str(tmp_path),
                              max_bytes=cache.total_bytes() + 100)
        _put(bounded, 2, pad=200)
        assert bounded.get(old) is MISS
        assert bounded.get(young) is not MISS
        assert bounded.evictions >= 1

    def test_read_refreshes_recency(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        first = _put(cache, 0, pad=200)
        second = _put(cache, 1, pad=200)
        _backdate(cache, first, seconds=100)
        _backdate(cache, second, seconds=50)

        bounded = ResultCache(str(tmp_path),
                              max_bytes=cache.total_bytes() + 100)
        assert bounded.get(first) is not MISS  # LRU touch: now the youngest
        _put(bounded, 2, pad=200)
        assert bounded.get(second) is MISS  # evicted instead of `first`
        assert bounded.get(first) is not MISS

    def test_max_bytes_boundary(self, tmp_path):
        unbounded = ResultCache(str(tmp_path))
        for i in range(3):
            _put(unbounded, i)
        total = unbounded.total_bytes()

        exact = ResultCache(str(tmp_path), max_bytes=total)
        assert exact.evict() == 0  # exactly at budget: nothing to do
        assert len(exact) == 3

        over = ResultCache(str(tmp_path), max_bytes=total - 1)
        assert over.evict() == 1  # one byte over: exactly one artifact goes
        assert len(over) == 2


class TestMaxAge:
    def test_expiry_survives_process_restart(self, tmp_path):
        # First "process": write an artifact, no eviction policy at all.
        writer = ResultCache(str(tmp_path))
        key = _put(writer, 0)
        _rewrite_created(writer, key, seconds_ago=100)

        # Second "process": a fresh instance sees the stored creation time.
        reader = ResultCache(str(tmp_path), max_age=50)
        assert reader.get(key) is MISS
        assert len(reader) == 0  # expired artifact deleted on sight

    def test_fresh_artifact_survives(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_age=3600)
        key = _put(cache, 0)
        assert cache.get(key) is not MISS
        assert cache.evict() == 0

    def test_evict_removes_idle_artifacts(self, tmp_path):
        writer = ResultCache(str(tmp_path))
        stale = _put(writer, 0)
        fresh = _put(writer, 1)
        _backdate(writer, stale, seconds=100)

        bounded = ResultCache(str(tmp_path), max_age=50)
        assert bounded.evict() == 1
        assert bounded.get(stale) is MISS
        assert bounded.get(fresh) is not MISS

    def test_put_triggers_age_eviction(self, tmp_path):
        writer = ResultCache(str(tmp_path))
        stale = _put(writer, 0)
        _backdate(writer, stale, seconds=100)

        bounded = ResultCache(str(tmp_path), max_age=50)
        _put(bounded, 1)  # the write sweeps the stale artifact
        assert bounded.evictions == 1
        assert len(bounded) == 1

    def test_read_path_expiry_counts_as_eviction(self, tmp_path):
        """Regression: a ``max_age`` expiry discovered by :meth:`get` must
        count as both a miss and an eviction, and delete the artifact."""
        writer = ResultCache(str(tmp_path))
        key = _put(writer, 0)
        _rewrite_created(writer, key, seconds_ago=100)

        reader = ResultCache(str(tmp_path), max_age=50)
        assert reader.get(key) is MISS
        assert reader.stats()["evictions"] == 1
        assert reader.stats()["misses"] == 1
        assert reader.stats()["hits"] == 0
        assert len(reader) == 0

    def test_evict_collects_recently_read_expired_artifacts(self, tmp_path):
        """Regression: reads refresh the mtime (LRU-on-read), so an expired
        artifact can look recently used; a GC pass must still remove it by
        its stored creation timestamp, or it leaks until someone happens to
        ``get`` its exact key again."""
        writer = ResultCache(str(tmp_path))
        stale = _put(writer, 0)
        fresh = _put(writer, 1)
        _rewrite_created(writer, stale, seconds_ago=100)
        # A read refreshes the expired artifact's mtime.
        assert ResultCache(str(tmp_path)).get(stale) is not MISS

        bounded = ResultCache(str(tmp_path), max_age=50)
        assert bounded.evict() == 1
        assert bounded.evictions == 1
        assert bounded.get(stale) is MISS
        assert bounded.get(fresh) is not MISS

    def test_non_utf8_artifact_neither_crashes_sweep_nor_get(self, tmp_path):
        """Regression: a torn binary file in the cache dir must not abort
        the GC sweep (which now opens fresh-mtime artifacts) or reads."""
        cache = ResultCache(str(tmp_path), max_age=50)
        good = _put(cache, 0)
        junk = os.path.join(cache.cache_dir, "0" * 64 + ".json")
        with open(junk, "wb") as handle:
            handle.write(b"\xff\xfe\x00garbage")
        assert cache.evict() == 0  # junk has no timestamp: kept, not fatal
        assert cache.get(good) is not MISS
        assert cache.get("0" * 64) is MISS  # junk reads as a plain miss

    def test_legacy_artifact_without_timestamp_is_kept(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_age=50)
        key = _put(cache, 0)
        path = os.path.join(cache.cache_dir, f"{key}.json")
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        del entry["created"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        assert cache.get(key) is not MISS


class TestStats:
    def test_eviction_counter_in_stats(self, tmp_path):
        writer = ResultCache(str(tmp_path))
        key = _put(writer, 0)
        _backdate(writer, key, seconds=100)
        bounded = ResultCache(str(tmp_path), max_age=50)
        bounded.evict()
        assert bounded.stats()["evictions"] == 1


class TestStaleFileSweep:
    """Leftovers: ``.tmp`` files and old-format ``.npy`` sidecars."""

    def test_injected_crash_during_put_does_not_leak_tmp(self, tmp_path,
                                                         monkeypatch):
        cache = ResultCache(str(tmp_path))

        def crash(src, dst):
            raise RuntimeError("injected crash before rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(RuntimeError):
            cache.put(cache.key_for({"i": 1}), {"i": 1})
        monkeypatch.undo()
        assert not [name for name in os.listdir(str(tmp_path))
                    if name.endswith(".tmp")]

    def test_killed_writer_tmp_swept_by_evict_after_grace(self, tmp_path):
        from repro.engine.cache import TMP_GRACE_SECONDS
        cache = ResultCache(str(tmp_path))
        key = _put(cache, 1)
        live_bytes = cache.total_bytes()
        # A killed *process* dies between mkstemp and os.replace with no
        # exception handler running: the .tmp survives, referenced by
        # nothing and invisible to the size accounting.
        leaked = os.path.join(str(tmp_path), "deadbeef.tmp")
        with open(leaked, "w", encoding="utf-8") as handle:
            handle.write("x" * 4096)
        assert cache.total_bytes() == live_bytes
        # Young leftovers may belong to an in-flight writer: kept.
        assert cache.evict() == 0
        assert os.path.exists(leaked)
        stamp = time.time() - 2 * TMP_GRACE_SECONDS
        os.utime(leaked, (stamp, stamp))
        assert cache.evict() == 1
        assert not os.path.exists(leaked)
        assert cache.get(key) is not MISS  # live artifacts untouched

    def test_evict_sweeps_stale_npy_leftovers(self, tmp_path):
        from repro.engine.cache import TMP_GRACE_SECONDS
        cache = ResultCache(str(tmp_path))
        key = _put(cache, 1)
        # No version writes ``.npy`` files any more, so even one named
        # after a live artifact's key is an old-format leftover.
        stale = os.path.join(str(tmp_path), f"{key}.0.npy")
        young = os.path.join(str(tmp_path), "0" * 64 + ".0.npy")
        for path in (stale, young):
            with open(path, "wb") as handle:
                handle.write(b"\x93NUMPY")
        stamp = time.time() - 2 * TMP_GRACE_SECONDS
        os.utime(stale, (stamp, stamp))
        assert cache.evict() == 1
        assert not os.path.exists(stale)
        assert os.path.exists(young)  # within the grace period: kept
        assert cache.get(key) is not MISS

    def test_clear_sweeps_stale_leftovers(self, tmp_path):
        from repro.engine.cache import TMP_GRACE_SECONDS
        cache = ResultCache(str(tmp_path))
        _put(cache, 1)
        stamp = time.time() - 2 * TMP_GRACE_SECONDS
        for name in ("dead.tmp", "0" * 64 + ".0.npy"):
            leaked = os.path.join(str(tmp_path), name)
            with open(leaked, "w", encoding="utf-8") as handle:
                handle.write("x")
            os.utime(leaked, (stamp, stamp))
        assert cache.clear() == 1
        assert os.listdir(str(tmp_path)) == []
