"""SQLite schema of the result warehouse.

One wide ``results`` table, one row per cache artifact, keyed by the
artifact key (the content hash, so re-indexing the same cache is
idempotent -- ``INSERT OR REPLACE`` by primary key).  Columns that a stage
kind does not produce are simply NULL: a calibrate row has no coverage, a
yield row has no block.  That keeps every canned report a single-table
query and lets ad-hoc SQL join nothing.

Column groups
-------------
identity
    ``key`` (artifact hash), ``study``, ``stage_kind`` (registry kind:
    calibrate / windows / campaign / block-summary / yield / escape),
    ``driver`` (the spec's cache driver string), ``task_id``, ``block``,
    ``seeds`` (the per-task seed-material token recorded in the spec),
    ``dut_fingerprint`` (the :class:`~repro.dut.DutSpec` content hash the
    task ran against; NULL for pre-DUT-refactor artifacts, which all ran
    the paper's default device), ``variant`` (the study variant label;
    NULL outside multi-variant studies), ``created`` (artifact creation
    time, epoch seconds).
detection / coverage (campaign + block-summary rows)
    ``n_defects``, ``n_simulated``, ``n_detected``, ``coverage``,
    ``ci_half_width``.
yield (yield rows)
    ``k``, ``empirical``, ``empirical_ci_half_width``, ``analytic_per_run``.
escape (escape rows)
    ``n_undetected``.
timings
    ``modeled_sim_time`` (modelled, deterministic) from the stored
    payload; ``queue_wait`` / ``deserialize`` / ``execute`` / ``ship`` /
    ``duration`` from the run's telemetry (NULL for backfilled or cached
    rows -- only an executed task has a span).
footprint
    ``json_bytes`` (the artifact's one JSON file).
"""

from __future__ import annotations

import os
import sqlite3

from ..circuit.errors import EngineError

#: Bumped on any incompatible change to the DDL below; a database written
#: by a different version is rejected with an actionable error (re-index
#: from the cache directory, which remains the source of truth).
#: History: 1 = initial schema; 2 = added ``dut_fingerprint`` / ``variant``
#: (parametric DUT sweeps); 3 = ``json_bytes`` is the whole footprint
#: (artifacts are one JSON file each); 4 = dropped the measured wall-time
#: column (results hold no measured time; ``execute``/``duration`` carry a
#: run's cost).
SCHEMA_VERSION = 4

RESULTS_DDL = """
CREATE TABLE IF NOT EXISTS results (
    key                     TEXT PRIMARY KEY,
    study                   TEXT,
    stage_kind              TEXT NOT NULL,
    driver                  TEXT NOT NULL,
    task_id                 TEXT,
    block                   TEXT,
    seeds                   TEXT,
    dut_fingerprint         TEXT,
    variant                 TEXT,
    created                 REAL,
    n_defects               INTEGER,
    n_simulated             INTEGER,
    n_detected              INTEGER,
    coverage                REAL,
    ci_half_width           REAL,
    k                       REAL,
    empirical               REAL,
    empirical_ci_half_width REAL,
    analytic_per_run        REAL,
    n_undetected            INTEGER,
    modeled_sim_time        REAL,
    queue_wait              REAL,
    deserialize             REAL,
    execute                 REAL,
    ship                    REAL,
    duration                REAL,
    json_bytes              INTEGER
);
CREATE INDEX IF NOT EXISTS ix_results_stage_kind ON results (stage_kind);
CREATE INDEX IF NOT EXISTS ix_results_block ON results (block);
CREATE INDEX IF NOT EXISTS ix_results_study ON results (study);
CREATE INDEX IF NOT EXISTS ix_results_variant ON results (variant);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

#: Insertable columns of ``results``, in DDL order (the indexer builds its
#: rows against this list so schema and extractor cannot drift apart).
RESULT_COLUMNS = (
    "key", "study", "stage_kind", "driver", "task_id", "block", "seeds",
    "dut_fingerprint", "variant",
    "created", "n_defects", "n_simulated", "n_detected", "coverage",
    "ci_half_width", "k", "empirical", "empirical_ci_half_width",
    "analytic_per_run", "n_undetected", "modeled_sim_time",
    "queue_wait", "deserialize", "execute", "ship", "duration",
    "json_bytes")


def open_warehouse(path: str, readonly: bool = False) -> sqlite3.Connection:
    """Open (and, unless readonly, create/migrate-check) a warehouse.

    ``readonly=True`` opens through a ``mode=ro`` URI, so the query surface
    -- including the raw SQL passthrough -- physically cannot mutate the
    database; a missing file is an error rather than an implicit empty
    warehouse.
    """
    if not path:
        raise EngineError("warehouse path must be a non-empty path")
    if readonly:
        if not os.path.exists(path):
            raise EngineError(
                f"warehouse {path!r} does not exist; build it with "
                f"`repro-campaign warehouse index` or --warehouse")
        uri = f"file:{path}?mode=ro"
        connection = sqlite3.connect(uri, uri=True)
        _check_version(connection, path)
        return connection
    connection = sqlite3.connect(path)
    ensure_schema(connection)
    _check_version(connection, path)
    return connection


def ensure_schema(connection: sqlite3.Connection) -> None:
    """Create the tables/indexes when absent; stamp the schema version."""
    connection.executescript(RESULTS_DDL)
    connection.execute(
        "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
        ("schema_version", str(SCHEMA_VERSION)))
    connection.commit()


def _check_version(connection: sqlite3.Connection, path: str) -> None:
    try:
        row = connection.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'").fetchone()
    except sqlite3.Error as exc:
        raise EngineError(
            f"{path!r} is not a result warehouse: {exc}") from exc
    version = row[0] if row else None
    if version != str(SCHEMA_VERSION):
        raise EngineError(
            f"warehouse {path!r} has schema version {version}, this build "
            f"expects {SCHEMA_VERSION}; re-index it from the cache "
            f"directory (the artifacts are the source of truth)")
