"""SQL-queryable warehouse over the engine's artifact store.

The :class:`~repro.engine.ResultCache` is a content-addressed pile of JSON
files: perfect for replay, useless for questions.
This package projects the completed results into one SQLite database --
one wide row per artifact, keyed by the artifact key, carrying the study
name, stage kind, task id, block path, seed material, the detection /
coverage / yield columns of the stage's payload, the per-phase task
timings and the artifact's on-disk footprint -- so "which block's coverage
moved between studies?" is a ``SELECT``, not a directory crawl.

Three entry points:

* :class:`WarehouseSink` rides the run's
  :class:`~repro.engine.TelemetryBus` and indexes the cache directory when
  ``run_finished`` fires (``--warehouse DB`` on any workload subcommand);
* :func:`index_cache` backfills a database from an existing cache
  directory offline (``repro-campaign warehouse index``);
* :mod:`~repro.warehouse.queries` holds the canned reports and the
  read-only SQL passthrough behind ``repro-campaign warehouse query/sql``.
"""

from .indexer import DRIVER_KINDS, WarehouseSink, index_cache
from .queries import CANNED_QUERIES, run_canned_query, run_sql
from .schema import SCHEMA_VERSION, ensure_schema, open_warehouse

__all__ = [
    "CANNED_QUERIES",
    "DRIVER_KINDS",
    "SCHEMA_VERSION",
    "WarehouseSink",
    "ensure_schema",
    "index_cache",
    "open_warehouse",
    "run_canned_query",
    "run_sql",
]
