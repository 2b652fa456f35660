"""Warehouse rows must reconcile with the engine's own reporting.

Randomized block-study specs (same seeded-generator discipline as the
backend-equivalence suite) run under every ``--backend`` choice (serial, and the process pool as
``shm`` and as its alias ``multiprocess``) with a
live :class:`WarehouseSink`; the indexed rows are then checked against the
:class:`CampaignReport` counts, the per-block JSON payload the CLI emits
(``_block_json``) and the stored block-summary artifacts.  A second, warm
run of each case replays every artifact through the cache -- calibrate
residual pools through their ``.npy`` sidecars -- and must produce
bit-identical summaries, which pins the sidecar round-trip in vivo.
"""

import sqlite3

import numpy as np
import pytest

from repro.engine import (BLOCK_STUDY, ResultCache, SerialBackend,
                          TelemetryBus, run_study)
from repro.engine.cli import _block_json
from repro.warehouse import WarehouseSink, run_canned_query

#: Fixed so the randomized cases are stable across runs.
CASE_ENTROPY = 20200309

SMALL_BLOCKS = ("offset_compensation", "vcm_generator", "preamplifier",
                "rs_latch")


def _random_cases(n=3):
    rng = np.random.default_rng(CASE_ENTROPY)
    cases = []
    for index in range(n):
        picks = rng.choice(len(SMALL_BLOCKS), size=2, replace=False)
        cases.append({
            "id": f"case-{index}",
            "seed": int(rng.integers(0, 2 ** 31)),
            "blocks": [SMALL_BLOCKS[int(i)] for i in picks],
            "samples": int(rng.integers(4, 8)),
            "threshold": int(rng.integers(10, 40)),
            "batch_size": int(rng.choice([1, 3])),
        })
    return cases


CASES = _random_cases()



def _run_case(case, backend, cache, warehouse_db, study):
    bus = TelemetryBus([WarehouseSink(warehouse_db,
                                      cache_dir=cache.cache_dir,
                                      study=study)])
    try:
        return run_study(BLOCK_STUDY.override({
            "seed": case["seed"], "calibrate.n_monte_carlo": 3,
            "campaign.blocks": case["blocks"],
            "campaign.samples": case["samples"],
            "campaign.exhaustive_threshold": case["threshold"],
            "campaign.batch_size": case["batch_size"]}),
            backend=backend, cache=cache, telemetry=bus)
    finally:
        bus.close()


@pytest.mark.parametrize("backend_name", ["multiprocess", "serial", "shm"])
@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_warehouse_reconciles_with_report_and_block_json(
        case, backend_name, tmp_path, cli_backend):
    cache = ResultCache(str(tmp_path / "cache"), namespace="calibration")
    db = str(tmp_path / "wh.sqlite")
    outcome = _run_case(case, cli_backend(backend_name), cache, db,
                        study="block-study")
    connection = sqlite3.connect(db)

    # Per-block coverage rows == the CLI's per-block JSON, value for value.
    headers, rows = run_canned_query(connection, "per-block-coverage")
    indexed = {row[headers.index("block")]: row for row in rows}
    assert sorted(indexed) == sorted(case["blocks"])
    for block, result in outcome.results.items():
        expected = _block_json(block, result)
        row = dict(zip(headers, indexed[block]))
        assert row["study"] == "block-study"
        for column in ("n_defects", "n_simulated", "n_detected",
                       "n_escaped", "coverage", "ci_half_width"):
            assert row[column] == expected[column], (block, column)

    # Block-summary rows also match the stored summary artifacts verbatim.
    for block, summary in outcome.summaries.items():
        stored = connection.execute(
            "SELECT n_defects, n_simulated, n_detected, coverage, "
            "wall_time FROM results WHERE stage_kind = 'block-summary' "
            "AND block = ?", (block,)).fetchone()
        assert stored == (summary["n_defects"], summary["n_simulated"],
                          summary["n_detected"], summary["coverage"],
                          summary["wall_time"])

    # Campaign rows aggregate to the CampaignReport per-defect totals.
    report = outcome.report
    n_rows, n_simulated, n_detected = connection.execute(
        "SELECT COUNT(*), SUM(n_simulated), SUM(n_detected) FROM results "
        "WHERE stage_kind = 'campaign'").fetchone()
    total_records = sum(len(result.records)
                        for result in outcome.results.values())
    total_detected = sum(result.n_detected
                         for result in outcome.results.values())
    assert n_simulated == total_records
    assert n_detected == total_detected
    assert n_rows == report.stage_counts["campaign"]

    # Every artifact of the run is indexed: one row per cache entry, and
    # every executed task's row carries its telemetry span.
    assert connection.execute(
        "SELECT COUNT(*) FROM results").fetchone()[0] == len(cache)
    timed = connection.execute(
        "SELECT COUNT(*) FROM results WHERE duration IS NOT NULL"
    ).fetchone()[0]
    assert timed == report.n_executed
    connection.close()


@pytest.mark.parametrize("case", CASES[:1], ids=[CASES[0]["id"]])
def test_warm_replay_through_sidecars_is_bit_identical(case, tmp_path):
    """Cold run writes ``.npy`` sidecars; the warm run replays everything
    through them and must reproduce the summaries bit for bit."""
    cache = ResultCache(str(tmp_path / "cache"), namespace="calibration")
    db = str(tmp_path / "wh.sqlite")
    cold = _run_case(case, SerialBackend(), cache, db, study="cold")
    connection = sqlite3.connect(db)
    sidecars = connection.execute(
        "SELECT SUM(sidecars) FROM results WHERE stage_kind = 'calibrate'"
    ).fetchone()[0]
    connection.close()
    assert sidecars > 0  # residual pools were externalized

    warm = _run_case(case, SerialBackend(), cache, db, study="warm")
    assert warm.report.n_executed == 0
    assert warm.report.n_cache_hits == cold.report.n_tasks
    assert warm.summaries == cold.summaries
    for block, result in cold.results.items():
        warm_records = [(r.defect.defect_id, r.detected, r.detection_cycle,
                         r.cycles_run, r.modeled_sim_time)
                        for r in warm.results[block].records]
        cold_records = [(r.defect.defect_id, r.detected, r.detection_cycle,
                         r.cycles_run, r.modeled_sim_time)
                        for r in result.records]
        assert warm_records == cold_records
    for block, calibration in cold.calibrations.items():
        warm_calibration = warm.calibrations[block]
        assert warm_calibration.sigmas == calibration.sigmas
        assert warm_calibration.means == calibration.means
        assert warm_calibration.deltas == calibration.deltas
