"""Populate the warehouse from cache artifacts (live sink or backfill).

Every completed result the engine caches is one JSON entry whose
``spec.driver`` string names the workload that produced it.  The indexer
maps each driver to its registry stage kind (:data:`DRIVER_KINDS`) and
runs the kind's column extractor over the stored payload.  Extraction
only reads the *scalar* summary columns.

Two feeding paths share :func:`index_cache`:

* **live**: :class:`WarehouseSink` buffers the per-task spans off the
  telemetry stream and indexes the cache directory once ``run_finished``
  fires, attaching the spans by task id (cache hits and backfilled rows
  keep NULL timings -- nothing executed);
* **offline**: ``repro-campaign warehouse index CACHE_DIR`` backfills a
  database from any existing cache directory, no run required.

Both are idempotent: rows are keyed by the artifact's content hash, so
re-indexing updates rather than duplicates -- and a re-index that has no
span for a task (warm replay, offline backfill) keeps the timings and
study name captured by the run that executed it.
"""

from __future__ import annotations

import json
import os
import sqlite3
from typing import Any, Dict, Mapping, Optional

from ..engine.telemetry import TelemetryEvent, TelemetrySink
from ..engine.trace import PHASES
from .schema import RESULT_COLUMNS, open_warehouse

#: Cache ``driver`` string -> registry stage kind.  Every campaign task is
#: written under the one driver ``symbist-defect-batch`` (a list of
#: records).  The retired campaign drivers stay mapped because they
#: describe artifacts already in existing cache directories: single-record
#: per-defect tasks and the per-graph-shape batch drivers.
DRIVER_KINDS: Dict[str, str] = {
    "symbist-calibration": "calibrate",
    "symbist-pipeline-windows": "windows",
    "symbist-block-windows": "windows",
    "symbist-pipeline-defect": "campaign",
    "symbist-block-defect": "campaign",
    "symbist-pipeline-defect-batch": "campaign",
    "symbist-block-defect-batch": "campaign",
    "symbist-defect-campaign": "campaign",
    "symbist-defect-batch": "campaign",
    "symbist-block-summary": "block-summary",
    "symbist-study-yield": "yield",
    "symbist-study-escape": "escape",
}


def stage_kind_of(driver: str) -> str:
    """Registry stage kind of a cache driver; unknown (third-party)
    drivers index under their own name rather than being dropped."""
    return DRIVER_KINDS.get(driver, driver)


# ------------------------------------------------------------- extraction

def _finite(value: Any) -> Optional[float]:
    return float(value) if isinstance(value, (int, float)) \
        and not isinstance(value, bool) else None


def _count(value: Any) -> Optional[int]:
    return int(value) if isinstance(value, int) \
        and not isinstance(value, bool) else None


def _block_of(spec: Mapping[str, Any]) -> Optional[str]:
    """Block path of an artifact's spec: its own ``block`` (windows /
    summary) or the nested windows spec's (per-block campaign tasks).
    Flat campaign artifacts carry no block in the spec -- their records
    name it (see :func:`_campaign_columns`)."""
    block = spec.get("block")
    if isinstance(block, str):
        return block
    windows = spec.get("windows")
    if isinstance(windows, Mapping) and isinstance(windows.get("block"), str):
        return windows["block"]
    return None


def _seeds_of(spec: Mapping[str, Any]) -> Optional[str]:
    """Seed-material token: the spec's own ``seeds``, or the nested
    windows spec's.  Calibration specs carry none -- their seed material
    is key-only by design (it never reaches the stored entry)."""
    seeds = spec.get("seeds")
    if isinstance(seeds, str):
        return seeds
    windows = spec.get("windows")
    if isinstance(windows, Mapping) and isinstance(windows.get("seeds"), str):
        return windows["seeds"]
    return None


def _spec_string(spec: Mapping[str, Any], key: str) -> Optional[str]:
    """A string annotation of an artifact's spec: its own ``key``, or the
    nested windows / calibration spec's.  Pre-refactor artifacts carry
    neither -- they stay NULL, which for ``dut_fingerprint`` reads as "the
    paper's default device" and for ``variant`` as "no variant"."""
    value = spec.get(key)
    if isinstance(value, str):
        return value
    for nested in ("windows", "calibration"):
        inner = spec.get(nested)
        if isinstance(inner, Mapping):
            value = _spec_string(inner, key)
            if value is not None:
                return value
    return None


def _dut_of(spec: Mapping[str, Any]) -> Optional[str]:
    """DutSpec fingerprint annotation (non-default devices only)."""
    return _spec_string(spec, "dut")


def _variant_of(spec: Mapping[str, Any]) -> Optional[str]:
    """Study variant label annotation (multi-variant studies only)."""
    return _spec_string(spec, "variant")


def _campaign_columns(result: Any) -> Dict[str, Any]:
    """Detection columns of one campaign artifact (single record or a
    batch's record list)."""
    records = result if isinstance(result, list) else [result]
    records = [record for record in records if isinstance(record, Mapping)]
    if not records:
        return {}
    # The records name the block themselves (``defect.block_path``); a
    # flat-campaign batch mixing blocks stays NULL.
    blocks = {record["defect"].get("block_path")
              for record in records if isinstance(record.get("defect"),
                                                  Mapping)}
    columns: Dict[str, Any] = {}
    if len(blocks) == 1 and isinstance(next(iter(blocks)), str):
        columns["block"] = next(iter(blocks))
    columns.update({
        "n_simulated": len(records),
        "n_detected": sum(1 for record in records if record.get("detected")),
        "modeled_sim_time": sum(
            _finite(record.get("modeled_sim_time")) or 0.0
            for record in records),
    })
    return columns


def _summary_columns(result: Any) -> Dict[str, Any]:
    if not isinstance(result, Mapping):
        return {}
    return {
        "n_defects": _count(result.get("n_defects")),
        "n_simulated": _count(result.get("n_simulated")),
        "n_detected": _count(result.get("n_detected")),
        "coverage": _finite(result.get("coverage")),
        "ci_half_width": _finite(result.get("ci_half_width")),
        "modeled_sim_time": _finite(result.get("modeled_sim_time")),
    }


def _yield_columns(result: Any) -> Dict[str, Any]:
    if not isinstance(result, Mapping):
        return {}
    return {
        "k": _finite(result.get("k")),
        "empirical": _finite(result.get("empirical")),
        "empirical_ci_half_width":
            _finite(result.get("empirical_ci_half_width")),
        "analytic_per_run": _finite(result.get("analytic_per_run")),
    }


def _escape_columns(result: Any) -> Dict[str, Any]:
    if not isinstance(result, Mapping):
        return {}
    return {"n_undetected": _count(result.get("n_undetected_total"))}


#: Per-stage-kind payload column extractors.  These read the shapes the
#: stages' result codecs serialize (the ``codec=`` each expander in
#: ``registry.py`` passes to its stage); kinds
#: without scalar summary columns (calibrate residual pools, windows
#: deltas) contribute identity/footprint columns only.
_EXTRACTORS = {
    "campaign": _campaign_columns,
    "block-summary": _summary_columns,
    "yield": _yield_columns,
    "escape": _escape_columns,
}


def entry_row(entry: Mapping[str, Any], cache_dir: str,
              study: Optional[str] = None,
              timings: Optional[Mapping[str, Mapping[str, float]]] = None
              ) -> Optional[Dict[str, Any]]:
    """One ``results`` row for a cache entry, or None for non-artifacts.

    Only entries with a spec carrying a ``driver`` string index -- that is
    every artifact the engine writes; anything else in the directory is
    not ours to interpret.
    """
    key = entry.get("key")
    spec = entry.get("spec")
    if not isinstance(key, str) or not isinstance(spec, Mapping):
        return None
    driver = spec.get("driver")
    if not isinstance(driver, str):
        return None
    task_id = entry.get("task_id")
    row: Dict[str, Any] = {column: None for column in RESULT_COLUMNS}
    row.update({
        "key": key,
        "study": study,
        "stage_kind": stage_kind_of(driver),
        "driver": driver,
        "task_id": task_id if isinstance(task_id, str) else None,
        "block": _block_of(spec),
        "seeds": _seeds_of(spec),
        "dut_fingerprint": _dut_of(spec),
        "variant": _variant_of(spec),
        "created": _finite(entry.get("created")),
    })
    extractor = _EXTRACTORS.get(row["stage_kind"])
    if extractor is not None:
        row.update(extractor(entry.get("result")))
    if timings and row["task_id"] in timings:
        span = timings[row["task_id"]]
        for phase in (*PHASES, "duration"):
            if span.get(phase) is not None:
                row[phase] = float(span[phase])
    json_path = os.path.join(cache_dir, f"{key}.json")
    try:
        row["json_bytes"] = os.stat(json_path).st_size
    except OSError:
        row["json_bytes"] = None
    return row


# Only the run that actually executed a task has its telemetry span, and
# only some callers know the study name -- a later re-index of the same
# artifact (warm cache replay, offline backfill) must not erase either, so
# those columns fall back to the stored value when the new row has none.
_PRESERVED = ("study", *PHASES, "duration")

_UPSERT = (
    f"INSERT INTO results ({', '.join(RESULT_COLUMNS)}) "
    f"VALUES ({', '.join('?' for _ in RESULT_COLUMNS)}) "
    "ON CONFLICT(key) DO UPDATE SET "
    + ", ".join(f"{column} = COALESCE(excluded.{column}, results.{column})"
                if column in _PRESERVED else f"{column} = excluded.{column}"
                for column in RESULT_COLUMNS if column != "key"))


def index_cache(connection: sqlite3.Connection, cache_dir: str,
                study: Optional[str] = None,
                timings: Optional[Mapping[str, Mapping[str, float]]] = None
                ) -> int:
    """Index every artifact of ``cache_dir``; returns rows written.

    Unreadable or foreign files are skipped, not fatal: the cache
    directory may legitimately hold in-flight ``.tmp`` files and torn
    artifacts of a crashed writer (the cache itself treats those as
    misses).
    """
    try:
        names = sorted(os.listdir(cache_dir))
    except OSError as exc:
        from ..circuit.errors import EngineError
        raise EngineError(
            f"cannot index cache directory {cache_dir!r}: "
            f"{exc.strerror or exc}") from exc
    written = 0
    for name in names:
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(cache_dir, name), "r",
                      encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            continue
        if not isinstance(entry, Mapping):
            continue
        row = entry_row(entry, cache_dir, study=study, timings=timings)
        if row is None:
            continue
        connection.execute(_UPSERT, tuple(row[column]
                                          for column in RESULT_COLUMNS))
        written += 1
    connection.commit()
    return written


# ------------------------------------------------------------- live sink

class WarehouseSink(TelemetrySink):
    """Indexes the run's cache directory into a warehouse at the end of
    the run.

    Rides the engine's :class:`~repro.engine.TelemetryBus` next to the
    trace/progress sinks: per-task spans are buffered off
    ``task_completed`` events, and when ``run_finished`` arrives the whole
    cache directory is (re-)indexed with those spans attached by task id.
    Indexing at the end, not per event, keeps the hot path free of SQLite
    writes and makes the sink crash-safe -- a killed run simply leaves the
    warehouse at its previous state, and the next run (or an offline
    ``warehouse index``) catches it up from the artifacts.
    """

    def __init__(self, db_path: str, cache_dir: str,
                 study: Optional[str] = None) -> None:
        self.db_path = str(db_path)
        self.cache_dir = str(cache_dir)
        self.study = study
        self.rows_indexed = 0
        self._timings: Dict[str, Dict[str, float]] = {}

    def handle(self, event: TelemetryEvent) -> None:
        if event.type == "task_completed" and event.task_id is not None:
            self._timings[event.task_id] = {
                phase: event.data[phase]
                for phase in (*PHASES, "duration") if phase in event.data}
        elif event.type == "run_finished":
            connection = open_warehouse(self.db_path)
            try:
                self.rows_indexed += index_cache(
                    connection, self.cache_dir, study=self.study,
                    timings=self._timings)
            finally:
                connection.close()
            self._timings.clear()
