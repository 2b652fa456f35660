"""Post-hoc analysis of saved telemetry traces (``repro-campaign trace``).

Given the JSONL event stream of one engine run (written by
:class:`~repro.engine.telemetry.JsonlTraceSink`), :func:`summarize_trace`
reconstructs where the wall time went:

* the **critical path** through the dependency graph -- the chain of tasks
  whose worker-side durations bound the best possible wall time at any
  worker count (edges come from the ``deps`` recorded on
  ``task_submitted``/``cache_hit`` events; cache hits are zero-cost nodes);
* **per-stage** tables: executed/cached/failed/skipped counts, summed
  execution time and mean queue wait;
* **per-worker** utilization: busy seconds over the run wall time, per pid;
* the **queue-wait breakdown**: how the per-task time divides into queue
  wait, worker-side setup (deserialize), execution and result shipping.

Everything operates on plain :class:`~repro.engine.telemetry.TelemetryEvent`
lists, so the same analysis runs on a live in-memory stream.
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
    """Per-stage aggregate of one trace."""

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
    #: from ``executed + cached`` only for batched stages.
    items: int = 0

    @property
    def mean_queue_wait(self) -> float:
        return self.queue_wait_seconds / self.executed if self.executed \
            else 0.0


@dataclass
class WorkerRow:
    """Per-worker aggregate of one trace."""

    worker: int
    tasks: int = 0
    busy_seconds: float = 0.0

    def utilization(self, wall_time: float) -> float:
        return self.busy_seconds / wall_time if wall_time > 0 else 0.0


@dataclass
class TraceSummary:
    """Everything :func:`summarize_trace` derives from one event stream."""

    backend: Optional[str] = None
    workers: Optional[int] = None
    n_tasks: int = 0
    n_executed: int = 0
    n_cache_hits: int = 0
    n_failed: int = 0
    n_skipped: int = 0
    #: Completed work items (executed + cached).  Batched tasks carry an
    #: ``items`` payload equal to their member count; everything else counts
    #: as one item, so an unbatched trace has
    #: ``n_items == n_executed + n_cache_hits``.
    n_items: int = 0
    wall_time: float = 0.0
    #: Sum over the executed tasks of each span phase.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    stages: List[StageRow] = field(default_factory=list)
    worker_rows: List[WorkerRow] = field(default_factory=list)
    #: Task ids along the longest dependency chain, root first, and the
    #: summed worker-side duration of that chain.
    critical_path: List[str] = field(default_factory=list)
    critical_path_seconds: float = 0.0

    @property
    def counts(self) -> Dict[str, int]:
        """The report-reconciling counters (see ``CampaignReport``)."""
        return {"n_tasks": self.n_tasks, "n_executed": self.n_executed,
                "n_cache_hits": self.n_cache_hits, "n_failed": self.n_failed,
                "n_skipped": self.n_skipped}


def summarize_trace(events: Sequence[TelemetryEvent]) -> TraceSummary:
    """Fold one run's event stream into a :class:`TraceSummary`."""
    if not events:
        raise EngineError("trace is empty: no telemetry events to summarize")
    summary = TraceSummary()
    stages: Dict[str, StageRow] = {}
    workers: Dict[int, WorkerRow] = {}
    deps: Dict[str, List[str]] = {}
    durations: Dict[str, float] = {}
    order: List[str] = []
    phase_seconds = {phase: 0.0 for phase in PHASES}
    last_t = first_t = events[0].t
    saw_run_finished = False

    def stage_row(event: TelemetryEvent) -> Optional[StageRow]:
        if event.stage is None:
            return None
        return stages.setdefault(event.stage, StageRow(stage=event.stage))

    for event in events:
        last_t = max(last_t, event.t)
        if event.type == "run_started":
            summary.backend = event.data.get("backend")
            summary.workers = event.data.get("workers")
            summary.n_tasks = event.data.get("n_tasks", 0)
            first_t = min(first_t, event.t)
            for stage, total in event.data.get("stages", {}).items():
                stages.setdefault(stage, StageRow(stage=stage)).total = total
        elif event.type in ("task_submitted", "cache_hit"):
            if event.task_id is not None:
                deps[event.task_id] = list(event.data.get("deps", []))
                if event.task_id not in durations:
                    order.append(event.task_id)
                durations.setdefault(event.task_id, 0.0)
            if event.type == "cache_hit":
                summary.n_cache_hits += 1
                summary.n_items += event.data.get("items", 1)
                row = stage_row(event)
                if row is not None:
                    row.cached += 1
                    row.items += event.data.get("items", 1)
        elif event.type == "task_completed":
            summary.n_executed += 1
            summary.n_items += event.data.get("items", 1)
            for phase in PHASES:
                phase_seconds[phase] += event.data.get(phase, 0.0)
            if event.task_id is not None:
                durations[event.task_id] = event.data.get(
                    "worker_seconds", event.data.get("duration", 0.0))
            row = stage_row(event)
            if row is not None:
                row.executed += 1
                row.items += event.data.get("items", 1)
                row.execute_seconds += event.data.get("execute", 0.0)
                row.queue_wait_seconds += event.data.get("queue_wait", 0.0)
            if event.worker is not None:
                worker = workers.setdefault(event.worker,
                                            WorkerRow(worker=event.worker))
                worker.tasks += 1
                worker.busy_seconds += event.data.get(
                    "worker_seconds", event.data.get("duration", 0.0))
        elif event.type == "task_failed":
            summary.n_failed += 1
            row = stage_row(event)
            if row is not None:
                row.failed += 1
        elif event.type == "task_skipped":
            summary.n_skipped += 1
            row = stage_row(event)
            if row is not None:
                row.skipped += 1
        elif event.type == "run_finished":
            summary.wall_time = event.data.get("wall_time",
                                               event.t - first_t)
            saw_run_finished = True
            for key in ("n_tasks", "n_executed", "n_cache_hits", "n_failed",
                        "n_skipped"):
                if key in event.data:
                    setattr(summary, key, event.data[key])
    if not saw_run_finished:
        # Interrupted run: no run_finished was written, so fall back to the
        # event-stream extent.  An explicit flag, not a falsy check -- a
        # recorded wall_time of 0.0 (sub-resolution fully-cached run) is a
        # legitimate value and must survive.
        summary.wall_time = last_t - first_t

    summary.phase_seconds = phase_seconds
    for row in stages.values():
        if not row.total:
            row.total = row.executed + row.cached + row.failed + row.skipped
    summary.stages = list(stages.values())
    summary.worker_rows = sorted(workers.values(),
                                 key=lambda row: row.worker)
    summary.critical_path, summary.critical_path_seconds = \
        _critical_path(order, deps, durations)
    return summary


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


def format_summary(summary: TraceSummary) -> str:
    """Human-readable rendering of a :class:`TraceSummary`."""
    lines = [
        f"run: {summary.n_tasks} tasks via {summary.backend or '?'} "
        f"({summary.workers or '?'} workers), "
        f"{summary.wall_time:.2f}s wall",
        f"counts: {summary.n_executed} executed, "
        f"{summary.n_cache_hits} cached, {summary.n_failed} failed, "
        f"{summary.n_skipped} skipped",
    ]
    if summary.n_items != summary.n_executed + summary.n_cache_hits:
        lines[-1] += f" [{summary.n_items} items]"
    total_phases = sum(summary.phase_seconds.values())
    if summary.n_executed:
        breakdown = ", ".join(
            f"{phase} {summary.phase_seconds.get(phase, 0.0):.3f}s"
            f" ({100.0 * summary.phase_seconds.get(phase, 0.0) / total_phases:.0f}%)"
            if total_phases > 0 else f"{phase} 0.000s"
            for phase in PHASES)
        lines.append(f"task time breakdown: {breakdown}")
    if summary.stages:
        lines.append("")
        lines.append("per-stage:")
        batched = any(row.items != row.executed + row.cached
                      for row in summary.stages)
        headers = ["stage", "total", "executed", "cached", "failed",
                   "skipped", "exec (s)", "mean queue wait (s)"]
        if batched:
            headers.insert(2, "items")
        rows = []
        for row in summary.stages:
            cells = [row.stage, row.total, row.executed, row.cached,
                     row.failed, row.skipped, f"{row.execute_seconds:.3f}",
                     f"{row.mean_queue_wait:.4f}"]
            if batched:
                cells.insert(2, row.items)
            rows.append(cells)
        lines.append(_table(headers, rows))
    if summary.worker_rows:
        lines.append("")
        lines.append("per-worker:")
        lines.append(_table(
            ["worker (pid)", "tasks", "busy (s)", "utilization"],
            [[row.worker, row.tasks, f"{row.busy_seconds:.3f}",
              f"{100.0 * row.utilization(summary.wall_time):.0f}%"]
             for row in summary.worker_rows]))
    if summary.critical_path:
        lines.append("")
        lines.append(
            f"critical path: {len(summary.critical_path)} tasks, "
            f"{summary.critical_path_seconds:.3f}s worker time")
        shown = summary.critical_path
        if len(shown) > 12:
            shown = shown[:6] + ["..."] + shown[-5:]
        lines.append("  " + " -> ".join(shown))
    return "\n".join(lines)
