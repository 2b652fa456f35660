"""Tests for the engine task abstraction and the result cache."""

import json
import os

import pytest

from repro.circuit import EngineError
from repro.engine import (MISS, ResultCache, Task, TaskGraph, callable_token,
                          canonical_json)


class TestTask:
    def test_requires_task_id(self):
        with pytest.raises(EngineError):
            Task(task_id="")

    def test_defaults(self):
        task = Task(task_id="t")
        assert task.payload is None
        assert task.spec is None
        assert not task.deterministic
        assert task.group is None


class TestTaskGraph:
    def test_preserves_order(self):
        graph = TaskGraph([Task(task_id=f"t{i}") for i in range(5)])
        assert graph.ids() == [f"t{i}" for i in range(5)]
        assert len(graph) == 5
        assert graph[2].task_id == "t2"

    def test_rejects_duplicate_ids(self):
        graph = TaskGraph([Task(task_id="t")])
        with pytest.raises(EngineError):
            graph.add(Task(task_id="t"))

    def test_lookup(self):
        graph = TaskGraph([Task(task_id="a"), Task(task_id="b")])
        assert graph.index_of("b") == 1
        assert graph.get("a").task_id == "a"
        with pytest.raises(EngineError):
            graph.index_of("missing")

    def test_groups_in_first_appearance_order(self):
        graph = TaskGraph([Task(task_id="1", group="x"),
                           Task(task_id="2", group="y"),
                           Task(task_id="3", group="x")])
        assert graph.groups() == ["x", "y"]


class TestCanonicalJson:
    def test_key_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_rejects_unserialisable(self):
        with pytest.raises(EngineError):
            canonical_json({"fn": lambda: None})


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path), namespace="test")
        key = cache.key_for({"x": 1})
        assert cache.get(key) is MISS
        cache.put(key, {"value": 42}, task_id="t")
        assert cache.get(key) == {"value": 42}
        assert cache.stats() == {"hits": 1, "misses": 1, "artifacts": 1,
                                 "evictions": 0}

    def test_cached_none_is_not_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cache.key_for({"x": 1})
        cache.put(key, None)
        assert cache.get(key) is None

    def test_spec_change_invalidates(self, tmp_path):
        cache = ResultCache(str(tmp_path), namespace="test")
        key_a = cache.key_for({"deltas": {"dac_sum": 0.05}})
        key_b = cache.key_for({"deltas": {"dac_sum": 0.06}})
        assert key_a != key_b
        cache.put(key_a, "a")
        assert cache.get(key_b) is MISS

    def test_seed_material_partitions_keys(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.key_for({"x": 1}, "int:1") != cache.key_for({"x": 1}, "int:2")

    def test_namespace_and_version_partition_keys(self, tmp_path):
        spec = {"x": 1}
        key_ns1 = ResultCache(str(tmp_path), namespace="a").key_for(spec)
        key_ns2 = ResultCache(str(tmp_path), namespace="b").key_for(spec)
        key_v2 = ResultCache(str(tmp_path), namespace="a",
                             version="0.0.0-test").key_for(spec)
        assert len({key_ns1, key_ns2, key_v2}) == 3

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cache.key_for({"x": 1})
        cache.put(key, "fine")
        path = os.path.join(str(tmp_path), f"{key}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{torn")
        assert cache.get(key) is MISS

    def test_non_dict_artifact_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cache.key_for({"x": 1})
        path = os.path.join(str(tmp_path), f"{key}.json")
        for body in ("null", "[1, 2]", '"text"'):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(body)
            assert cache.get(key) is MISS

    def test_clear_and_keys(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        for i in range(3):
            cache.put(cache.key_for({"i": i}), i)
        assert len(cache.keys()) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_unserialisable_result_raises(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        with pytest.raises(EngineError):
            cache.put(cache.key_for({"x": 1}), object())

    def test_artifact_is_json_on_disk(self, tmp_path):
        cache = ResultCache(str(tmp_path), namespace="test")
        key = cache.key_for({"x": 1})
        cache.put(key, [1, 2, 3], task_id="t", spec={"x": 1})
        with open(os.path.join(str(tmp_path), f"{key}.json"),
                  encoding="utf-8") as handle:
            entry = json.load(handle)
        assert entry["key"] == key
        assert entry["task_id"] == "t"
        assert entry["spec"] == {"x": 1}
        assert entry["result"] == [1, 2, 3]

    def test_requires_cache_dir(self):
        with pytest.raises(EngineError):
            ResultCache("")


class TestCallableToken:
    def test_function_and_class(self):
        assert callable_token(canonical_json) == \
            "repro.engine.cache.canonical_json"
        assert callable_token(ResultCache) == "repro.engine.cache.ResultCache"

    def test_unnameable_callables_get_none(self):
        class Factory:
            def __call__(self):
                return None

        assert callable_token(Factory()) is None


class TestNonFiniteRejection:
    """NaN/Infinity are not JSON; keys and artifacts must reject them."""

    def test_canonical_json_rejects_nan_and_infinity(self):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(EngineError):
                canonical_json({"x": value})

    def test_key_for_rejects_non_finite_spec(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        with pytest.raises(EngineError):
            cache.key_for({"k": float("inf")})

    def test_put_rejects_non_finite_result(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = cache.key_for({"x": 1})
        with pytest.raises(EngineError):
            cache.put(key, {"value": float("nan")})
        assert cache.get(key) is MISS
        assert not [name for name in os.listdir(str(tmp_path))
                    if name.endswith(".tmp")]


class TestArtifactFormat:
    """Every artifact is one JSON file; old sidecar entries are misses."""

    def test_put_writes_one_file_and_round_trips_bit_identical(self,
                                                               tmp_path):
        import numpy as np
        cache = ResultCache(str(tmp_path))
        key = cache.key_for({"x": 1})
        pool = np.random.default_rng(7).standard_normal(64).tolist()
        cache.put(key, {"pool": pool})
        assert os.listdir(str(tmp_path)) == [f"{key}.json"]
        got = cache.get(key)
        assert got == {"pool": pool}
        assert [v.hex() for v in got["pool"]] == [v.hex() for v in pool]

    def test_old_sidecar_entry_is_a_miss_and_put_replaces_it(self,
                                                             tmp_path):
        import numpy as np
        cache = ResultCache(str(tmp_path))
        key = cache.key_for({"x": 1})
        pool = [float(i) for i in range(32)]
        with open(os.path.join(str(tmp_path), f"{key}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"key": key, "task_id": "t", "spec": None,
                       "result": {"pool": {"__npy__": 0}},
                       "created": 0.0, "sidecars": 1}, handle)
        np.save(os.path.join(str(tmp_path), f"{key}.0.npy"),
                np.asarray(pool))
        assert cache.get(key) is MISS
        cache.put(key, {"pool": pool}, task_id="t")
        with open(os.path.join(str(tmp_path), f"{key}.json"),
                  encoding="utf-8") as handle:
            assert "sidecars" not in json.load(handle)
        assert cache.get(key) == {"pool": pool}
