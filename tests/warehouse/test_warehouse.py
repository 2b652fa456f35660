"""Unit tests for the warehouse schema, indexer, sink and queries."""

import json
import os
import sqlite3

import pytest

from repro.circuit import EngineError
from repro.engine import ResultCache, TelemetryBus
from repro.warehouse import (CANNED_QUERIES, SCHEMA_VERSION, WarehouseSink,
                             index_cache, open_warehouse, run_canned_query,
                             run_sql)


def _seed_cache(tmp_path):
    """A cache directory holding one artifact of each stage kind."""
    cache = ResultCache(str(tmp_path / "cache"), namespace="test")

    def put(task_id, spec, result):
        key = cache.key_for(spec)
        cache.put(key, result, task_id=task_id, spec=spec)
        return key

    keys = {
        "calibrate": put(
            "calib/0",
            {"driver": "symbist-calibration", "factory": "f"},
            {"inv_a": [float(i) for i in range(32)]}),
        "windows": put(
            "windows/sc_array",
            {"driver": "symbist-block-windows", "block": "sc_array",
             "k": 5.0, "seeds": "sha:abc"},
            {"deltas": {"inv_a": 0.5}}),
        "campaign": put(
            "block/sc_array/0/sc_array:c0:short",
            {"driver": "symbist-block-defect",
             "defect_id": "sc_array:c0:short",
             "windows": {"driver": "symbist-block-windows",
                         "block": "sc_array", "seeds": "sha:abc"}},
            {"defect": {"defect_id": "sc_array:c0:short"},
             "detected": True, "detection_cycle": 3,
             "modeled_sim_time": 1.5, "wall_time": 0.01}),
        "batch": put(
            "block-batch/sc_array/0-2",
            {"driver": "symbist-block-defect-batch",
             "members": [{"defect_id": "a"}, {"defect_id": "b"}],
             "windows": {"block": "sc_array", "seeds": "sha:abc"}},
            [{"detected": True, "modeled_sim_time": 1.0, "wall_time": 0.5},
             {"detected": False, "modeled_sim_time": 2.0,
              "wall_time": 0.25}]),
        "summary": put(
            "summary/sc_array",
            {"driver": "symbist-block-summary", "block": "sc_array"},
            {"block": "sc_array", "n_defects": 54, "n_simulated": 10,
             "n_detected": 9, "coverage": 0.99, "ci_half_width": 0.01,
             "modeled_sim_time": 12.5, "wall_time": 0.5}),
        "yield": put(
            "yield/0/k=3",
            {"driver": "symbist-study-yield", "k": 3.0, "seeds": "sha:y"},
            {"k": 3.0, "analytic_single_check": 0.0027,
             "analytic_per_run": 0.08, "empirical": 0.1,
             "empirical_ci_half_width": 0.02}),
        "escape": put(
            "escape",
            {"driver": "symbist-study-escape", "records": "sha:r"},
            {"n_undetected_total": 4, "records": []}),
    }
    return cache, keys


class TestSchema:
    def test_open_creates_and_stamps_version(self, tmp_path):
        path = str(tmp_path / "wh.sqlite")
        connection = open_warehouse(path)
        version = connection.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()[0]
        connection.close()
        assert version == str(SCHEMA_VERSION)

    def test_readonly_rejects_missing_file(self, tmp_path):
        with pytest.raises(EngineError, match="does not exist"):
            open_warehouse(str(tmp_path / "absent.sqlite"), readonly=True)

    def test_readonly_connection_rejects_writes(self, tmp_path):
        path = str(tmp_path / "wh.sqlite")
        open_warehouse(path).close()
        connection = open_warehouse(path, readonly=True)
        with pytest.raises(EngineError, match="readonly"):
            run_sql(connection, "DELETE FROM results")
        connection.close()

    def test_version_mismatch_is_actionable(self, tmp_path):
        path = str(tmp_path / "wh.sqlite")
        connection = open_warehouse(path)
        connection.execute("UPDATE meta SET value = '999' "
                           "WHERE key = 'schema_version'")
        connection.commit()
        connection.close()
        with pytest.raises(EngineError, match="re-index"):
            open_warehouse(path)

    def test_schema_v1_database_is_rejected(self, tmp_path):
        """A warehouse built before the dut_fingerprint/variant columns
        (schema version 1) must be refused, pointing at re-indexing."""
        path = str(tmp_path / "old.sqlite")
        connection = open_warehouse(path)
        connection.execute("UPDATE meta SET value = '1' "
                           "WHERE key = 'schema_version'")
        connection.commit()
        connection.close()
        with pytest.raises(EngineError) as excinfo:
            open_warehouse(path)
        message = str(excinfo.value)
        assert "schema version 1" in message
        assert str(SCHEMA_VERSION) in message
        assert "re-index" in message

    def test_foreign_sqlite_file_is_rejected(self, tmp_path):
        path = str(tmp_path / "other.sqlite")
        connection = sqlite3.connect(path)
        connection.execute("CREATE TABLE t (x)")
        connection.commit()
        connection.close()
        with pytest.raises(EngineError):
            open_warehouse(path, readonly=True)


class TestIndexer:
    def test_indexes_every_stage_kind(self, tmp_path):
        cache, keys = _seed_cache(tmp_path)
        connection = open_warehouse(str(tmp_path / "wh.sqlite"))
        assert index_cache(connection, cache.cache_dir,
                           study="unit") == len(keys)
        kinds = dict(connection.execute(
            "SELECT stage_kind, COUNT(*) FROM results GROUP BY stage_kind"))
        assert kinds == {"calibrate": 1, "windows": 1, "campaign": 2,
                         "block-summary": 1, "yield": 1, "escape": 1}
        assert connection.execute(
            "SELECT DISTINCT study FROM results").fetchall() == [("unit",)]
        connection.close()

    def test_summary_columns(self, tmp_path):
        cache, keys = _seed_cache(tmp_path)
        connection = open_warehouse(str(tmp_path / "wh.sqlite"))
        index_cache(connection, cache.cache_dir)
        row = connection.execute(
            "SELECT block, n_defects, n_simulated, n_detected, coverage, "
            "ci_half_width, wall_time FROM results WHERE key = ?",
            (keys["summary"],)).fetchone()
        assert row == ("sc_array", 54, 10, 9, 0.99, 0.01, 0.5)
        connection.close()

    def test_campaign_batch_aggregates_records(self, tmp_path):
        cache, keys = _seed_cache(tmp_path)
        connection = open_warehouse(str(tmp_path / "wh.sqlite"))
        index_cache(connection, cache.cache_dir)
        single = connection.execute(
            "SELECT block, n_simulated, n_detected, modeled_sim_time "
            "FROM results WHERE key = ?", (keys["campaign"],)).fetchone()
        assert single == ("sc_array", 1, 1, 1.5)
        batch = connection.execute(
            "SELECT block, n_simulated, n_detected, modeled_sim_time, "
            "wall_time FROM results WHERE key = ?",
            (keys["batch"],)).fetchone()
        assert batch == ("sc_array", 2, 1, 3.0, 0.75)
        connection.close()

    def test_seed_material_and_json_footprint(self, tmp_path):
        cache, keys = _seed_cache(tmp_path)
        connection = open_warehouse(str(tmp_path / "wh.sqlite"))
        index_cache(connection, cache.cache_dir)
        seeds = connection.execute(
            "SELECT seeds FROM results WHERE key = ?",
            (keys["campaign"],)).fetchone()[0]
        assert seeds == "sha:abc"  # lifted from the nested windows spec
        json_bytes = connection.execute(
            "SELECT json_bytes FROM results WHERE key = ?",
            (keys["calibrate"],)).fetchone()[0]
        path = os.path.join(cache.cache_dir, f"{keys['calibrate']}.json")
        assert json_bytes == os.stat(path).st_size
        connection.close()

    def test_reindex_is_idempotent(self, tmp_path):
        cache, keys = _seed_cache(tmp_path)
        connection = open_warehouse(str(tmp_path / "wh.sqlite"))
        index_cache(connection, cache.cache_dir)
        index_cache(connection, cache.cache_dir)
        total = connection.execute(
            "SELECT COUNT(*) FROM results").fetchone()[0]
        assert total == len(keys)
        connection.close()

    def test_foreign_and_torn_files_are_skipped(self, tmp_path):
        cache, keys = _seed_cache(tmp_path)
        with open(os.path.join(cache.cache_dir, "torn.json"), "w",
                  encoding="utf-8") as handle:
            handle.write('{"key": "torn"')  # truncated JSON
        with open(os.path.join(cache.cache_dir, "foreign.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"no": "spec"}, handle)
        connection = open_warehouse(str(tmp_path / "wh.sqlite"))
        assert index_cache(connection, cache.cache_dir) == len(keys)
        connection.close()

    def test_pre_refactor_artifacts_backfill_with_null_dut(self, tmp_path):
        """Artifacts written before the DUT refactor carry no dut/variant
        spec keys; they index with NULL in both columns (read as "the
        paper's default device, no variant"), not an error."""
        cache, keys = _seed_cache(tmp_path)
        connection = open_warehouse(str(tmp_path / "wh.sqlite"))
        assert index_cache(connection, cache.cache_dir) == len(keys)
        rows = connection.execute(
            "SELECT dut_fingerprint, variant FROM results").fetchall()
        assert rows and all(row == (None, None) for row in rows)
        connection.close()

    def test_dut_and_variant_annotations_index(self, tmp_path):
        """Annotated specs -- own keys or lifted from the nested windows /
        calibration spec -- populate the new identity columns."""
        cache = ResultCache(str(tmp_path / "cache"), namespace="test")
        own_spec = {"driver": "symbist-block-windows", "block": "sc_array",
                    "dut": "deadbeef00000000", "variant": "vdd-low"}
        own = cache.key_for(own_spec)
        cache.put(own, {"deltas": {}}, task_id="vdd-low/windows/sc_array",
                  spec=own_spec)
        nested_spec = {
            "driver": "symbist-block-defect",
            "defect_id": "sc_array:c0:short",
            "windows": {"driver": "symbist-block-windows",
                        "block": "sc_array", "seeds": "sha:abc",
                        "dut": "deadbeef00000000", "variant": "vdd-low"}}
        nested = cache.key_for(nested_spec)
        cache.put(nested,
                  {"defect": {"defect_id": "sc_array:c0:short"},
                   "detected": True, "modeled_sim_time": 1.0,
                   "wall_time": 0.01},
                  task_id="vdd-low/block/sc_array/0/sc_array:c0:short",
                  spec=nested_spec)
        connection = open_warehouse(str(tmp_path / "wh.sqlite"))
        assert index_cache(connection, cache.cache_dir) == 2
        for key in (own, nested):
            assert connection.execute(
                "SELECT dut_fingerprint, variant FROM results "
                "WHERE key = ?", (key,)).fetchone() == \
                ("deadbeef00000000", "vdd-low")
        assert connection.execute(
            "SELECT COUNT(*) FROM results WHERE variant = 'vdd-low'"
        ).fetchone()[0] == 2
        connection.close()

    def test_flat_campaign_drivers_take_block_from_records(self, tmp_path):
        """`repro-campaign campaign` artifacts (flat `DefectCampaign.run`
        ids like ``defect/0/...``) carry no block in the spec; the records'
        own ``defect.block_path`` names it.  A flat batch spanning several
        blocks stays NULL."""
        cache = ResultCache(str(tmp_path / "cache"), namespace="defects")
        single_spec = {"driver": "symbist-defect-campaign",
                       "defect_id": "rs_latch.nor1:mos:short"}
        single = cache.key_for(single_spec)
        cache.put(single,
                  {"defect": {"defect_id": "rs_latch.nor1:mos:short",
                              "block_path": "rs_latch"},
                   "detected": True, "modeled_sim_time": 1.0,
                   "wall_time": 0.01},
                  task_id="defect/0/rs_latch.nor1:mos:short",
                  spec=single_spec)
        batch_spec = {"driver": "symbist-defect-batch",
                      "members": [{"defect_id": "a"}, {"defect_id": "b"}]}
        batch = cache.key_for(batch_spec)
        cache.put(batch,
                  [{"defect": {"defect_id": "a", "block_path": "rs_latch"},
                    "detected": True, "modeled_sim_time": 1.0,
                    "wall_time": 0.01},
                   {"defect": {"defect_id": "b",
                               "block_path": "vcm_generator"},
                    "detected": False, "modeled_sim_time": 2.0,
                    "wall_time": 0.02}],
                  task_id="defect-batch/0-2", spec=batch_spec)
        connection = open_warehouse(str(tmp_path / "wh.sqlite"))
        assert index_cache(connection, cache.cache_dir) == 2
        assert connection.execute(
            "SELECT stage_kind, block, n_simulated, n_detected FROM results "
            "WHERE key = ?", (single,)).fetchone() == \
            ("campaign", "rs_latch", 1, 1)
        assert connection.execute(
            "SELECT stage_kind, block, n_simulated, n_detected FROM results "
            "WHERE key = ?", (batch,)).fetchone() == ("campaign", None, 2, 1)
        connection.close()

    def test_reindex_without_spans_preserves_timings_and_study(
            self, tmp_path):
        """A warm replay or offline backfill has no telemetry spans (and
        maybe no study name); re-indexing must keep the values captured by
        the run that executed the task, not erase them."""
        cache, keys = _seed_cache(tmp_path)
        db = str(tmp_path / "wh.sqlite")
        bus = TelemetryBus([WarehouseSink(db, cache_dir=cache.cache_dir,
                                          study="cold")])
        bus.emit("run_started", n_tasks=1)
        bus.emit("task_completed", task_id="summary/sc_array",
                 queue_wait=0.25, execute=1.5, duration=2.25)
        bus.emit("run_finished", n_tasks=1)
        bus.close()
        connection = open_warehouse(db)
        index_cache(connection, cache.cache_dir)  # no study, no timings
        assert connection.execute(
            "SELECT study, queue_wait, execute, duration FROM results "
            "WHERE key = ?", (keys["summary"],)).fetchone() == \
            ("cold", 0.25, 1.5, 2.25)
        # A run that re-executes the task does overwrite the span.
        index_cache(connection, cache.cache_dir, study="hot",
                    timings={"summary/sc_array": {"duration": 9.0}})
        assert connection.execute(
            "SELECT study, duration FROM results WHERE key = ?",
            (keys["summary"],)).fetchone() == ("hot", 9.0)
        connection.close()

    def test_missing_cache_dir_is_an_error(self, tmp_path):
        connection = open_warehouse(str(tmp_path / "wh.sqlite"))
        with pytest.raises(EngineError, match="cannot index"):
            index_cache(connection, str(tmp_path / "absent"))
        connection.close()


class TestWarehouseSink:
    def test_indexes_on_run_finished_with_timings(self, tmp_path):
        cache, keys = _seed_cache(tmp_path)
        db = str(tmp_path / "wh.sqlite")
        bus = TelemetryBus([WarehouseSink(db, cache_dir=cache.cache_dir,
                                          study="sink")])
        bus.emit("run_started", n_tasks=1)
        bus.emit("task_completed", task_id="summary/sc_array",
                 stage="summary", worker=123, queue_wait=0.25,
                 deserialize=0.0, execute=1.5, ship=0.5, duration=2.25)
        bus.emit("run_finished", n_tasks=1, wall_time=2.5)
        bus.close()
        connection = sqlite3.connect(db)
        row = connection.execute(
            "SELECT study, queue_wait, execute, duration FROM results "
            "WHERE key = ?", (keys["summary"],)).fetchone()
        assert row == ("sink", 0.25, 1.5, 2.25)
        # Rows whose task never executed (cache hits, other artifacts)
        # index with NULL timings.
        assert connection.execute(
            "SELECT duration FROM results WHERE key = ?",
            (keys["yield"],)).fetchone() == (None,)
        connection.close()

    def test_no_index_before_run_finished(self, tmp_path):
        cache, _ = _seed_cache(tmp_path)
        db = str(tmp_path / "wh.sqlite")
        bus = TelemetryBus([WarehouseSink(db, cache_dir=cache.cache_dir)])
        bus.emit("run_started", n_tasks=1)
        bus.close()
        assert not os.path.exists(db)


class TestQueries:
    def test_per_block_coverage_matches_summary_artifact(self, tmp_path):
        cache, _ = _seed_cache(tmp_path)
        connection = open_warehouse(str(tmp_path / "wh.sqlite"))
        index_cache(connection, cache.cache_dir, study="unit")
        headers, rows = run_canned_query(connection, "per-block-coverage")
        assert headers == ["study", "block", "n_defects", "n_simulated",
                           "n_detected", "n_escaped", "coverage",
                           "ci_half_width"]
        assert rows == [("unit", "sc_array", 54, 10, 9, 1, 0.99, 0.01)]
        connection.close()

    def test_cache_composition_accounts_all_artifacts(self, tmp_path):
        cache, keys = _seed_cache(tmp_path)
        connection = open_warehouse(str(tmp_path / "wh.sqlite"))
        index_cache(connection, cache.cache_dir)
        headers, rows = run_canned_query(connection, "cache-composition")
        by_kind = {row[0]: row for row in rows}
        assert sum(row[1] for row in rows) == len(keys)
        total = sum(row[headers.index("json_bytes")] for row in rows)
        assert total == cache.total_bytes()
        assert by_kind["calibrate"][headers.index("artifacts")] == 1
        connection.close()

    def test_slowest_stages_uses_live_timings(self, tmp_path):
        cache, keys = _seed_cache(tmp_path)
        db = str(tmp_path / "wh.sqlite")
        bus = TelemetryBus([WarehouseSink(db, cache_dir=cache.cache_dir)])
        bus.emit("run_started", n_tasks=2)
        bus.emit("task_completed", task_id="summary/sc_array",
                 duration=2.0, execute=1.9)
        bus.emit("task_completed", task_id="yield/0/k=3",
                 duration=5.0, execute=4.9)
        bus.emit("run_finished", n_tasks=2)
        bus.close()
        connection = open_warehouse(db, readonly=True)
        headers, rows = run_canned_query(connection, "slowest-stages")
        connection.close()
        assert [row[0] for row in rows] == ["yield", "block-summary"]
        assert rows[0][headers.index("duration")] == 5.0

    def test_unknown_report_lists_available(self, tmp_path):
        connection = open_warehouse(str(tmp_path / "wh.sqlite"))
        with pytest.raises(EngineError) as excinfo:
            run_canned_query(connection, "nope")
        for name in CANNED_QUERIES:
            assert name in str(excinfo.value)
        connection.close()

    def test_sql_error_is_engine_error(self, tmp_path):
        connection = open_warehouse(str(tmp_path / "wh.sqlite"))
        with pytest.raises(EngineError, match="query failed"):
            run_sql(connection, "SELECT nonsense FROM nowhere")
        connection.close()
