"""Concurrent-writer safety of the result cache.

The cache is content-addressed: two writers racing on one key are by
construction writing the same bytes, so the race must resolve silently
(last rename wins) -- never with an exception, a torn artifact or a
leftover ``.tmp`` file.
"""

import glob
import os
import threading

import pytest

from repro.engine import MISS, ResultCache


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"), namespace="race")


def _tmp_files(cache):
    return [path for path in glob.glob(os.path.join(cache.cache_dir,
                                                    "**", "*"),
                                       recursive=True)
            if ".tmp" in os.path.basename(path)]


class TestConcurrentPut:
    def test_two_threads_hammering_one_key(self, cache):
        payload = {"values": list(range(200)), "tag": "same-for-both"}
        errors = []
        barrier = threading.Barrier(2)

        def hammer():
            try:
                barrier.wait(timeout=10.0)
                for _ in range(300):
                    cache.put("hot-key", payload)
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors
        assert cache.get("hot-key") == payload
        assert _tmp_files(cache) == []

    def test_many_threads_many_keys(self, cache):
        errors = []
        barrier = threading.Barrier(4)

        def hammer(worker):
            try:
                barrier.wait(timeout=10.0)
                for i in range(50):
                    key = f"key-{i % 5}"
                    cache.put(key, {"key": key})
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(w,))
                   for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors
        for i in range(5):
            assert cache.get(f"key-{i}") == {"key": f"key-{i}"}
        assert _tmp_files(cache) == []

    def test_lost_race_unlinks_own_tmp(self, cache, monkeypatch):
        # Force the loser's path deterministically: os.replace fails while
        # the destination already exists -> the loser must swallow the
        # error and remove its temp file.
        cache.put("key", {"v": 1})
        destination = cache._path("key")
        assert os.path.exists(destination)
        real_replace = os.replace
        calls = {"n": 0}

        def flaky_replace(src, dst):
            if dst == destination and calls["n"] == 0:
                calls["n"] += 1
                raise OSError("simulated rename collision")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", flaky_replace)
        cache.put("key", {"v": 1})  # must not raise
        assert cache.get("key") == {"v": 1}
        assert _tmp_files(cache) == []

    def test_real_failure_still_raises(self, cache, monkeypatch):
        def broken_replace(src, dst):
            raise OSError("disk on fire")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError):
            cache.put("fresh-key", {"v": 2})  # no destination to fall back on


def test_miss_sentinel_unchanged(cache):
    assert cache.get("never-written") is MISS
