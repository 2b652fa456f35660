"""The account of one engine run: :class:`CampaignReport`, the fold of its
telemetry events (``repro-campaign trace summarize``).

:func:`summarize_trace` is the one function that turns a run's
:class:`~repro.engine.telemetry.TelemetryEvent` stream into a report.  A
live :class:`~repro.engine.CampaignEngine` run folds the events it has just
emitted; ``trace summarize`` folds the same events read back from the JSONL
file (:func:`~repro.engine.telemetry.read_trace`), so the two reports are
equal.  The report holds

* the run's task counts, completed work items and wall time;
* **per-stage** rows: executed/cached/failed/skipped counts, summed
  execution time and mean queue wait, in order of each stage's first event;
* **per-worker** rows: tasks and busy seconds per pid;
* the **critical path** through the dependency graph -- the chain of tasks
  whose worker-side durations bound the best possible wall time at any
  worker count (edges come from the ``deps`` recorded on
  ``task_submitted``/``cache_hit`` events; cache hits are zero-cost nodes).

Per-task span phases (:data:`PHASES`) stay in the ``task_completed``
events: they are latencies that overlap across tasks, so their sum over a
run adds up to nothing and the report does not carry it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..circuit.errors import EngineError
from .telemetry import TelemetryEvent

#: The four per-task phases of the span breakdown, in pipeline order.
PHASES: Tuple[str, ...] = ("queue_wait", "deserialize", "execute", "ship")


@dataclass
class StageRow:
    """Per-stage aggregate of one run."""

    stage: str
    total: int = 0
    executed: int = 0
    cached: int = 0
    failed: int = 0
    skipped: int = 0
    execute_seconds: float = 0.0
    queue_wait_seconds: float = 0.0
    #: Completed work items (sum of the ``items`` payload of executed and
    #: cached tasks; an event without ``items`` counts as one item).  Differs
    #: from :attr:`completed` only for batched stages.
    items: int = 0

    @property
    def completed(self) -> int:
        """Tasks that produced a result (executed or replayed)."""
        return self.executed + self.cached

    @property
    def mean_queue_wait(self) -> float:
        return self.queue_wait_seconds / self.executed if self.executed \
            else 0.0


@dataclass
class WorkerRow:
    """Per-worker aggregate of one run."""

    worker: int
    tasks: int = 0
    busy_seconds: float = 0.0

    def utilization(self, wall_time: float) -> float:
        return self.busy_seconds / wall_time if wall_time > 0 else 0.0


@dataclass
class CampaignReport:
    """Counts, timing and per-stage/per-worker rows of one engine run.

    Built only by :func:`summarize_trace`, live or from a saved trace.
    """

    backend: Optional[str] = None
    workers: Optional[int] = None
    n_tasks: int = 0
    n_executed: int = 0
    n_cache_hits: int = 0
    #: Tasks whose worker raised.
    n_failed: int = 0
    #: Tasks never dispatched because an ancestor failed (or the run was
    #: cancelled first).
    n_skipped: int = 0
    #: Completed work items (executed + cached).  Batched tasks carry an
    #: ``items`` payload equal to their member count; everything else counts
    #: as one item, so an unbatched run has
    #: ``n_items == n_executed + n_cache_hits``.
    n_items: int = 0
    wall_time: float = 0.0
    #: Worker execution seconds per completed task id (0.0 for cache hits).
    task_durations: Dict[str, float] = field(default_factory=dict)
    #: One row per pipeline stage, in order of the stage's first event.
    stages: List[StageRow] = field(default_factory=list)
    #: One row per worker pid, by pid.
    worker_rows: List[WorkerRow] = field(default_factory=list)
    #: Task ids along the longest dependency chain, root first, and the
    #: summed worker-side duration of that chain.
    critical_path: List[str] = field(default_factory=list)
    critical_path_seconds: float = 0.0

    @property
    def counts(self) -> Dict[str, int]:
        """The task counters that ``run_finished`` carries."""
        return {"n_tasks": self.n_tasks, "n_executed": self.n_executed,
                "n_cache_hits": self.n_cache_hits, "n_failed": self.n_failed,
                "n_skipped": self.n_skipped}

    @property
    def cache_hit_rate(self) -> float:
        return self.n_cache_hits / self.n_tasks if self.n_tasks else 0.0

    @property
    def tasks_per_second(self) -> float:
        """Executed-task throughput: cache hits are lookups, not work, so
        they are excluded (a warm-cache run reports ~0 tasks/s instead of
        an absurd replay rate)."""
        return self.n_executed / self.wall_time if self.wall_time > 0 else 0.0

    def stage(self, name: str) -> StageRow:
        for row in self.stages:
            if row.stage == name:
                return row
        raise EngineError(f"run has no stage {name!r}")

    def summary(self) -> str:
        """One-line digest of the task counts for logs and CLIs.

        It holds no measured time; callers that show the wall time print
        :attr:`wall_time` next to it.
        """
        parts = [f"{self.n_tasks} tasks via {self.backend}"
                 f" ({self.workers} worker{'s' if self.workers != 1 else ''})",
                 f"{self.n_executed} executed",
                 f"{self.n_cache_hits} cached"
                 f" ({100.0 * self.cache_hit_rate:.0f}%)"]
        if self.n_failed or self.n_skipped:
            parts.append(f"{self.n_failed} failed")
            parts.append(f"{self.n_skipped} skipped")
        return ", ".join(parts)

    def stage_summary(self) -> str:
        """One-line per-stage breakdown (empty without stage tagging)."""
        parts = []
        for row in self.stages:
            part = f"{row.stage} {row.completed} tasks/" \
                   f"{row.execute_seconds:.2f}s"
            if row.items != row.completed:
                # Batched stages: the per-item (e.g. per-defect) total
                # differs from the task count, so report both.
                part += f" [{row.items} items]"
            if row.failed or row.skipped:
                part += f" ({row.failed} failed, {row.skipped} skipped)"
            parts.append(part)
        return ", ".join(parts)


def summarize_trace(events: Sequence[TelemetryEvent]) -> CampaignReport:
    """Fold one run's event stream into its :class:`CampaignReport`.

    The counts come from the task events alone; ``run_finished``
    contributes only the wall time.  A stream without one (an interrupted
    run) takes the extent of its timestamps instead.  A
    :class:`~repro.engine.telemetry.JsonlTraceSink` appends, so a file can
    hold several runs: the report is the last run's.
    """
    if not events:
        raise EngineError("trace is empty: no telemetry events to summarize")
    starts = [index for index, event in enumerate(events)
              if event.type == "run_started"]
    if starts:
        events = events[starts[-1]:]
    report = CampaignReport()
    totals: Dict[str, int] = {}
    stages: Dict[str, StageRow] = {}
    workers: Dict[int, WorkerRow] = {}
    deps: Dict[str, List[str]] = {}
    durations: Dict[str, float] = {}
    order: List[str] = []
    wall_time: Optional[float] = None

    def stage_row(event: TelemetryEvent) -> Optional[StageRow]:
        if event.stage is None:
            return None
        row = stages.get(event.stage)
        if row is None:
            row = stages[event.stage] = StageRow(stage=event.stage)
        return row

    for event in events:
        kind, data = event.type, event.data
        items = data.get("items", 1)
        row = stage_row(event)
        if kind == "run_started":
            report.backend = data.get("backend")
            report.workers = data.get("workers")
            report.n_tasks = data.get("n_tasks", 0)
            totals = dict(data.get("stages", {}))
        elif kind in ("task_submitted", "cache_hit"):
            if event.task_id not in deps:
                order.append(event.task_id)
            deps[event.task_id] = list(data.get("deps", []))
            durations.setdefault(event.task_id, 0.0)
            if kind == "cache_hit":
                report.n_cache_hits += 1
                report.n_items += items
                report.task_durations[event.task_id] = 0.0
                if row is not None:
                    row.cached += 1
                    row.items += items
        elif kind == "task_completed":
            report.n_executed += 1
            report.n_items += items
            report.task_durations[event.task_id] = data.get("duration", 0.0)
            busy = data.get("worker_seconds", data.get("duration", 0.0))
            durations[event.task_id] = busy
            if row is not None:
                row.executed += 1
                row.items += items
                row.execute_seconds += data.get("execute", 0.0)
                row.queue_wait_seconds += data.get("queue_wait", 0.0)
            if event.worker is not None:
                worker = workers.setdefault(event.worker,
                                            WorkerRow(worker=event.worker))
                worker.tasks += 1
                worker.busy_seconds += busy
        elif kind == "task_failed":
            report.n_failed += 1
            if row is not None:
                row.failed += 1
        elif kind == "task_skipped":
            report.n_skipped += 1
            if row is not None:
                row.skipped += 1
        elif kind == "run_finished":
            wall_time = data.get("wall_time")
    # An explicit None check: a recorded wall_time of 0.0 (a sub-resolution
    # fully-cached run) is a legitimate value and must survive.
    if wall_time is None:
        stamps = [event.t for event in events]
        wall_time = max(stamps) - min(stamps)
    report.wall_time = wall_time

    # Stages that never reached an event (an interrupted run) follow the
    # others by name, so a stream and its JSONL file (whose run_started
    # stages are key-sorted) fold to the same row order.
    for stage in sorted(totals):
        if stage not in stages:
            stages[stage] = StageRow(stage=stage)
    for row in stages.values():
        row.total = totals.get(row.stage) or \
            row.executed + row.cached + row.failed + row.skipped
    report.stages = list(stages.values())
    report.worker_rows = sorted(workers.values(), key=lambda row: row.worker)
    report.critical_path, report.critical_path_seconds = \
        _critical_path(order, deps, durations)
    return report


def _critical_path(order: Sequence[str], deps: Mapping[str, Sequence[str]],
                   durations: Mapping[str, float]
                   ) -> Tuple[List[str], float]:
    """Longest duration-weighted chain through the recorded dependencies.

    ``order`` is scheduling order, which the engine guarantees is
    topologically consistent (a task is only submitted -- or cache-resolved
    -- after all its parents), so one forward pass suffices.  Tasks whose
    parents never appear in the trace (e.g. the trace of a partially
    failed run) treat the missing parent as a zero-length chain.
    """
    best: Dict[str, float] = {}
    prev: Dict[str, Optional[str]] = {}
    for task_id in order:
        parent_best, parent = 0.0, None
        for dep in deps.get(task_id, []):
            if dep in best and best[dep] > parent_best:
                parent_best, parent = best[dep], dep
        best[task_id] = parent_best + durations.get(task_id, 0.0)
        prev[task_id] = parent
    if not best:
        return [], 0.0
    tail = max(best, key=lambda task_id: best[task_id])
    path: List[str] = []
    cursor: Optional[str] = tail
    while cursor is not None:
        path.append(cursor)
        cursor = prev[cursor]
    path.reverse()
    return path, best[tail]


# ================================================================ formatting

def _table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    cells = [[str(value) for value in row] for row in rows]
    widths = [max(len(header), *(len(row[i]) for row in cells))
              if cells else len(header)
              for i, header in enumerate(headers)]
    lines = ["  ".join(header.ljust(widths[i])
                       for i, header in enumerate(headers)),
             "  ".join("-" * width for width in widths)]
    lines.extend("  ".join(row[i].ljust(widths[i])
                           for i in range(len(headers)))
                 for row in cells)
    return "\n".join(lines)


def format_summary(report: CampaignReport) -> str:
    """Human-readable rendering of a :class:`CampaignReport`."""
    lines = [
        f"run: {report.n_tasks} tasks via {report.backend or '?'} "
        f"({report.workers or '?'} workers), "
        f"{report.wall_time:.2f}s wall",
        f"counts: {report.n_executed} executed, "
        f"{report.n_cache_hits} cached, {report.n_failed} failed, "
        f"{report.n_skipped} skipped",
    ]
    if report.n_items != report.n_executed + report.n_cache_hits:
        lines[-1] += f" [{report.n_items} items]"
    if report.stages:
        lines.append("")
        lines.append("per-stage:")
        batched = any(row.items != row.completed for row in report.stages)
        headers = ["stage", "total", "executed", "cached", "failed",
                   "skipped", "exec (s)", "mean queue wait (s)"]
        if batched:
            headers.insert(2, "items")
        rows = []
        for row in report.stages:
            cells = [row.stage, row.total, row.executed, row.cached,
                     row.failed, row.skipped, f"{row.execute_seconds:.3f}",
                     f"{row.mean_queue_wait:.4f}"]
            if batched:
                cells.insert(2, row.items)
            rows.append(cells)
        lines.append(_table(headers, rows))
    if report.worker_rows:
        lines.append("")
        lines.append("per-worker:")
        lines.append(_table(
            ["worker (pid)", "tasks", "busy (s)", "utilization"],
            [[row.worker, row.tasks, f"{row.busy_seconds:.3f}",
              f"{100.0 * row.utilization(report.wall_time):.0f}%"]
             for row in report.worker_rows]))
    if report.critical_path:
        lines.append("")
        lines.append(
            f"critical path: {len(report.critical_path)} tasks, "
            f"{report.critical_path_seconds:.3f}s worker time")
        shown = report.critical_path
        if len(shown) > 12:
            shown = shown[:6] + ["..."] + shown[-5:]
        lines.append("  " + " -> ".join(shown))
    return "\n".join(lines)
