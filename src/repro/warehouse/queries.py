"""Canned reports and the SQL passthrough of the result warehouse.

Each canned query is plain SQL over the single ``results`` table (see
``schema.py``), registered under a stable name with a one-line doc; the
CLI lists them, runs them and renders the rows as a table or JSON.  The
passthrough (:func:`run_sql`) executes arbitrary SQL on a *read-only*
connection -- exploration can never corrupt the warehouse, and the cache
directory stays the source of truth either way.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..circuit.errors import EngineError


@dataclass(frozen=True)
class CannedQuery:
    """One named report: SQL plus the doc line the CLI shows."""

    name: str
    doc: str
    sql: str


CANNED_QUERIES: Dict[str, CannedQuery] = {}


def _register(query: CannedQuery) -> CannedQuery:
    CANNED_QUERIES[query.name] = query
    return query


_register(CannedQuery(
    name="per-block-coverage",
    doc="per-block defect coverage across studies (the Table I rows, "
        "from the block-summary artifacts)",
    sql="""
        SELECT study, block, n_defects, n_simulated, n_detected,
               n_simulated - n_detected AS n_escaped,
               coverage, ci_half_width
        FROM results
        WHERE stage_kind = 'block-summary'
        ORDER BY COALESCE(study, ''), block
    """))

_register(CannedQuery(
    name="variant-coverage",
    doc="per-variant, per-block defect coverage for multi-variant DUT "
        "sweeps (NULL variant = single-device studies)",
    sql="""
        SELECT study, variant, dut_fingerprint, block,
               n_defects, n_simulated, n_detected,
               coverage, ci_half_width
        FROM results
        WHERE stage_kind = 'block-summary'
        ORDER BY COALESCE(study, ''), COALESCE(variant, ''), block
    """))

_register(CannedQuery(
    name="slowest-stages",
    doc="stage kinds by total executed task time, with each kind's five "
        "slowest tasks (needs timings, i.e. rows indexed live via "
        "--warehouse)",
    sql="""
        SELECT stage_kind, stage_seconds, task_rank, task_id, block,
               duration
        FROM (
            SELECT stage_kind, task_id, block, duration,
                   SUM(duration) OVER (PARTITION BY stage_kind)
                       AS stage_seconds,
                   RANK() OVER (PARTITION BY stage_kind
                                ORDER BY duration DESC) AS task_rank
            FROM results
            WHERE duration IS NOT NULL
        )
        WHERE task_rank <= 5
        ORDER BY stage_seconds DESC, stage_kind, task_rank
    """))

_register(CannedQuery(
    name="cache-composition",
    doc="artifact count and on-disk footprint (JSON bytes) per stage kind",
    sql="""
        SELECT stage_kind,
               COUNT(*) AS artifacts,
               SUM(COALESCE(json_bytes, 0)) AS json_bytes
        FROM results
        GROUP BY stage_kind
        ORDER BY json_bytes DESC, stage_kind
    """))


def run_canned_query(connection: sqlite3.Connection, name: str
                     ) -> Tuple[List[str], List[Tuple[Any, ...]]]:
    """Run one canned report; returns ``(column names, rows)``."""
    try:
        query = CANNED_QUERIES[name]
    except KeyError:
        available = ", ".join(sorted(CANNED_QUERIES))
        raise EngineError(
            f"unknown warehouse report {name!r}; available reports: "
            f"{available}") from None
    return run_sql(connection, query.sql)


def run_sql(connection: sqlite3.Connection, sql: str
            ) -> Tuple[List[str], List[Tuple[Any, ...]]]:
    """Execute one SQL statement; returns ``(column names, rows)``.

    SQL errors surface as :class:`~repro.circuit.errors.EngineError` with
    SQLite's message -- the passthrough is a user surface, not an
    internal one.
    """
    try:
        cursor = connection.execute(sql)
        rows = cursor.fetchall()
    except sqlite3.Error as exc:
        raise EngineError(f"warehouse query failed: {exc}") from exc
    headers = [column[0] for column in cursor.description or []]
    return headers, rows
