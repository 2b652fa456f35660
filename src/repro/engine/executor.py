"""Campaign executor: seeding, cache orchestration, graph scheduling.

:class:`CampaignEngine` takes a :class:`~repro.engine.task.TaskGraph` and a
*worker* callable and produces one result per task plus a
:class:`~repro.engine.trace.CampaignReport`, the fold of the telemetry
events the run emits (:func:`~repro.engine.trace.summarize_trace`).  Every
run goes through one topological scheduler:

1. derive one ``np.random.SeedSequence`` child per task (by task index, from
   the engine root seed) -- identical seeds whatever backend runs the task;
2. as soon as a task's last parent completes (root tasks: immediately),
   resolve it against the :class:`~repro.engine.cache.ResultCache` (when
   configured and the task carries a ``spec``); a hit completes the task
   inline and unblocks its children without touching the backend;
3. submit the remaining runnable tasks to the backend's
   :class:`~repro.engine.backends.WorkStream`
   (:class:`~repro.engine.backends.SerialBackend` by default) -- there are
   no stage barriers;
4. store each freshly computed result in the cache as it completes and
   assemble all results in task order.

A failed task marks every descendant ``skipped`` while the rest of the graph
keeps running; see :meth:`CampaignEngine.run` for how the run then ends.

Worker contract
---------------
``worker(context, task, rng, inputs) -> result`` where ``inputs`` maps each
parent task id to its result (``{}`` for root tasks).  ``context`` is an
arbitrary (picklable, for pool execution) object shared by all tasks of a
run; ``rng`` is a ``numpy`` generator seeded from the task's own
``SeedSequence`` child, so results are independent of worker count and
completion order.
"""

from __future__ import annotations

import functools
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..circuit.errors import EngineError, TaskExecutionError
from .backends import ExecutionBackend, SerialBackend
from .cache import MISS, ResultCache
from .task import Task, TaskGraph
from .telemetry import TaskSpan, TelemetryBus, TelemetryEvent
from .trace import CampaignReport, summarize_trace

#: Per-task terminal states recorded in :attr:`EngineRun.statuses`.
STATUS_EXECUTED = "executed"
STATUS_CACHED = "cached"
STATUS_FAILED = "failed"
STATUS_SKIPPED = "skipped"


@dataclass(frozen=True)
class ResultCodec:
    """Converts worker results to/from the JSON stored by the cache."""

    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]


#: Codec for results that are natively JSON-serialisable.
IDENTITY_CODEC = ResultCodec(encode=lambda value: value,
                             decode=lambda value: value)

#: A codec argument: one codec for every task, or a per-task resolver
#: (used by pipelines whose stages store different result shapes).
CodecArg = Optional[Union[ResultCodec, Callable[[Task], ResultCodec]]]


@dataclass
class EngineRun:
    """Results (in task order) and instrumentation of one engine run."""

    results: List[Any]
    report: CampaignReport
    task_ids: List[str] = field(default_factory=list)
    #: Terminal state per task id: ``executed``, ``cached``, ``failed`` or
    #: ``skipped``.  Failed/skipped tasks have ``None`` in :attr:`results`.
    statuses: Dict[str, str] = field(default_factory=dict)
    #: Error message per failed task id.
    errors: Dict[str, str] = field(default_factory=dict)
    #: True when the run stopped early because its ``cancel`` probe fired;
    #: unresolved tasks are recorded as ``skipped``.
    cancelled: bool = False

    def result_for(self, task_id: str) -> Any:
        try:
            return self.results[self.task_ids.index(task_id)]
        except ValueError as exc:
            raise EngineError(f"run has no task {task_id!r}") from exc

    @property
    def ok(self) -> bool:
        """True when every task completed (none failed or skipped)."""
        return not self.errors and \
            STATUS_SKIPPED not in self.statuses.values()

    def failed_tasks(self) -> List[str]:
        return [tid for tid in self.task_ids if tid in self.errors]

    def skipped_tasks(self) -> List[str]:
        return [tid for tid in self.task_ids
                if self.statuses.get(tid) == STATUS_SKIPPED]


def _seed_token(seed_material: Any) -> str:
    """Stable string identifying seed material inside cache keys."""
    if seed_material is None:
        return "none"
    if isinstance(seed_material, np.random.SeedSequence):
        return (f"entropy:{seed_material.entropy}"
                f"/spawn:{tuple(seed_material.spawn_key)}")
    return f"int:{int(seed_material)}"


def _run_task(worker: Callable[[Any, Task, np.random.Generator,
                                Mapping[str, Any]], Any],
              context: Any,
              item: Tuple[int, Task, Any, Mapping[str, Any]]) \
        -> Tuple[int, Any, float, TaskSpan]:
    """Run one task (in whatever process the backend chose).

    Module-level (and wrapped with :func:`functools.partial`) so the pool
    backends can pickle it; parent results arrive as ``inputs``.  Failures
    are re-raised as :class:`TaskExecutionError` naming the task, so the
    parent process can attribute crashes even across the pool boundary.
    The returned :class:`~repro.engine.telemetry.TaskSpan` carries the
    worker-side monotonic clock readings back for telemetry.
    """
    index, task, seed_material, inputs = item
    received = time.monotonic()
    rng = np.random.default_rng(seed_material)
    start = time.perf_counter()
    exec_started = time.monotonic()
    try:
        result = worker(context, task, rng, inputs)
    except TaskExecutionError:
        raise
    except Exception as exc:
        raise TaskExecutionError(
            f"task {task.task_id!r} failed: {type(exc).__name__}: {exc}") \
            from exc
    duration = time.perf_counter() - start
    span = TaskSpan(worker=os.getpid(), started_at=received,
                    finished_at=time.monotonic(),
                    deserialize=exec_started - received)
    return index, result, duration, span


class _RunTelemetry:
    """Per-run emission helper: the run's event record, stage bookkeeping
    and span arithmetic.

    Every event goes out through the bus to its sinks and onto
    :attr:`events`, the in-memory record the run's
    :class:`~repro.engine.trace.CampaignReport` is folded from.  Tracks
    per-stage terminal counts (emitting ``stage_completed`` when a stage's
    last task resolves) and combines worker-side spans with the
    parent-side submit/receive clocks into the queue-wait / deserialize /
    execute / ship phases.
    """

    def __init__(self, bus: TelemetryBus, graph: TaskGraph,
                 stage_of: Optional[Mapping[str, str]],
                 backend: ExecutionBackend) -> None:
        self.bus = bus
        self.events: List[TelemetryEvent] = []
        self.graph = graph
        self.backend = backend
        self.stage_of = dict(stage_of) if stage_of else {}
        self.started = time.monotonic()
        self.submitted_at: Dict[str, float] = {}
        self.stage_totals: Dict[str, int] = {}
        for task in graph:
            stage = self.stage_of.get(task.task_id)
            if stage is not None:
                self.stage_totals[stage] = \
                    self.stage_totals.get(stage, 0) + 1
        self.stage_state: Dict[str, Dict[str, int]] = {
            stage: {"executed": 0, "cached": 0, "failed": 0, "skipped": 0}
            for stage in self.stage_totals}
        self.emit("run_started", t=self.started, n_tasks=len(graph),
                  backend=backend.name, workers=backend.workers,
                  stages=dict(self.stage_totals))

    def emit(self, event_type: str, **fields: Any) -> None:
        self.events.append(self.bus.emit(event_type, **fields))

    def _stage(self, task: Task) -> Optional[str]:
        return self.stage_of.get(task.task_id)

    @staticmethod
    def _items(task: Task) -> Dict[str, int]:
        """Extra ``items`` payload for batched tasks (weight > 1) only, so
        unbatched event streams stay byte-identical."""
        return {"items": task.weight} if task.weight != 1 else {}

    def _terminal(self, task: Task, kind: str) -> None:
        stage = self._stage(task)
        if stage is None:
            return
        state = self.stage_state[stage]
        state[kind] += 1
        if sum(state.values()) == self.stage_totals[stage]:
            self.emit("stage_completed", stage=stage,
                      total=self.stage_totals[stage],
                      elapsed=time.monotonic() - self.started, **state)

    def submitted(self, task: Task) -> None:
        t = time.monotonic()
        self.submitted_at[task.task_id] = t
        self.emit("task_submitted", t=t, task_id=task.task_id,
                  stage=self._stage(task), group=task.group,
                  deps=list(task.depends_on), **self._items(task))

    def cache_hit(self, task: Task) -> None:
        self.emit("cache_hit", task_id=task.task_id,
                  stage=self._stage(task), group=task.group,
                  deps=list(task.depends_on), **self._items(task))
        self._terminal(task, "cached")

    def executed(self, task: Task, duration: float, span: TaskSpan) -> None:
        received = time.monotonic()
        stage = self._stage(task)
        submitted = self.submitted_at.get(task.task_id, span.started_at)
        queue_wait = max(0.0, span.started_at - submitted)
        ship = max(0.0, received - span.finished_at)
        worker_seconds = max(0.0, span.finished_at - span.started_at)
        self.emit("task_started", t=span.started_at,
                  task_id=task.task_id, stage=stage, group=task.group,
                  worker=span.worker)
        self.emit("task_completed", t=received, task_id=task.task_id,
                  stage=stage, group=task.group, worker=span.worker,
                  queue_wait=queue_wait, deserialize=span.deserialize,
                  execute=duration, ship=ship,
                  worker_seconds=worker_seconds, duration=duration,
                  **self._items(task))
        self._terminal(task, "executed")

    def failed(self, task: Task, error: BaseException) -> None:
        self.emit("task_failed", task_id=task.task_id,
                  stage=self._stage(task), group=task.group,
                  error=str(error))
        self._terminal(task, "failed")

    def skipped(self, task_id: str) -> None:
        task = self.graph[self.graph.index_of(task_id)]
        self.emit("task_skipped", task_id=task_id,
                  stage=self._stage(task), group=task.group)
        self._terminal(task, "skipped")

    def finished(self, started: float) -> CampaignReport:
        """Fold the run's events into its report and emit ``run_finished``.

        ``run_finished`` adds only the wall time to the fold of the events
        before it, so the returned report equals
        ``summarize_trace(self.events)`` once the event is out.
        """
        report = summarize_trace(self.events)
        report.wall_time = time.perf_counter() - started
        data: Dict[str, Any] = dict(report.counts,
                                    wall_time=report.wall_time)
        payload = getattr(self.backend, "last_payload", None)
        if payload is not None:
            data["task_bytes"] = payload.task_bytes
            data["context_bytes"] = payload.context_bytes
        self.emit("run_finished", **data)
        return report


def _resolve_codec(codec: CodecArg) -> Callable[[Task], ResultCodec]:
    if codec is None:
        return lambda task: IDENTITY_CODEC
    if isinstance(codec, ResultCodec):
        return lambda task: codec
    return codec


class CampaignEngine:
    """Executes a task graph through a backend with seeding + caching.

    Parameters
    ----------
    backend:
        Execution backend; defaults to :class:`SerialBackend` (bit-identical
        to the historical in-process loops).
    cache:
        Optional :class:`ResultCache`; only tasks carrying a ``spec``
        participate.
    seed:
        Root seed (``int`` or ``SeedSequence``) from which one child
        ``SeedSequence`` per task is spawned, by task index.
    telemetry:
        Optional default :class:`~repro.engine.telemetry.TelemetryBus`;
        every run emits its lifecycle events (``run_started``,
        ``task_submitted``, ``task_completed``, ...) through it.
    """

    def __init__(self, backend: Optional[ExecutionBackend] = None,
                 cache: Optional[ResultCache] = None,
                 seed: Union[int, np.random.SeedSequence] = 0,
                 telemetry: Optional[TelemetryBus] = None) -> None:
        self.backend = backend or SerialBackend()
        self.cache = cache
        self.seed = seed
        self.telemetry = telemetry

    # ---------------------------------------------------------------- helpers
    def _task_seeds(self, graph: TaskGraph) -> List[Any]:
        """Per-task seed material, independent of backend and run count.

        Children are derived statelessly (not via ``root.spawn``, which
        advances the parent's spawn counter) so repeated runs of the same
        engine -- or one sharing a caller-owned SeedSequence -- always see
        identical per-task seeds.  For a fresh root this matches ``spawn()``.
        """
        root = self.seed if isinstance(self.seed, np.random.SeedSequence) \
            else np.random.SeedSequence(self.seed)
        children = [np.random.SeedSequence(entropy=root.entropy,
                                           spawn_key=tuple(root.spawn_key)
                                           + (i,))
                    for i in range(len(graph))]
        return [task.seed if task.seed is not None else children[i]
                for i, task in enumerate(graph)]

    def _cache_key(self, task: Task, seed_material: Any) -> Optional[str]:
        if self.cache is None or task.spec is None:
            return None
        seed_token = None if task.deterministic else _seed_token(seed_material)
        return self.cache.key_for(task.spec, seed_token)

    # -------------------------------------------------------------------- run
    def run(self, tasks: Union[TaskGraph, Sequence[Task]],
            worker: Callable[..., Any],
            context: Any = None,
            codec: CodecArg = None,
            on_failure: str = "raise",
            stage_of: Optional[Mapping[str, str]] = None,
            telemetry: Optional[TelemetryBus] = None,
            cancel: Optional[Callable[[], bool]] = None) -> EngineRun:
        """Execute every task; results come back in task order.

        Parameters
        ----------
        tasks:
            A :class:`TaskGraph` or sequence of tasks.
        worker:
            ``worker(context, task, rng, inputs)``; ``inputs`` maps each
            parent id to its result (``{}`` for root tasks).
        codec:
            A :class:`ResultCodec`, or a per-task resolver
            ``codec_for(task) -> ResultCodec`` for heterogeneous graphs.
        on_failure:
            What a failed task does to the run.  Either way the scheduler
            first finishes all runnable work: descendants of a failed task
            are ``skipped``, every other task still runs and completed
            results still reach the cache.  ``"raise"`` (default) then
            raises :class:`TaskExecutionError` with the completed
            :class:`EngineRun` attached as ``.run``; ``"skip"`` returns the
            run, with failed/skipped tasks recorded in
            :attr:`EngineRun.statuses` / :attr:`EngineRun.errors` and
            ``None`` results.
        stage_of:
            Optional ``task_id -> stage`` mapping; when given, the events
            carry each task's stage and the report has one row per stage
            (:attr:`CampaignReport.stages`), independently of the per-task
            ``group`` labels (which e.g. campaign stages override with
            block paths).  Compiled studies pass theirs.
        telemetry:
            Optional :class:`~repro.engine.telemetry.TelemetryBus` for this
            run, overriding the engine default.  Its sinks see the events
            the run's report is folded from.
        cancel:
            Optional zero-argument probe polled between completions.  Once
            it returns True the scheduler stops dispatching, drains the
            work already in flight (their results still reach the cache),
            marks every unresolved task ``skipped`` and returns the run
            with :attr:`EngineRun.cancelled` set -- the cooperative-stop
            hook of the campaign daemon's ``cancel`` verb.  Cancellation
            never raises by itself.
        """
        graph = tasks if isinstance(tasks, TaskGraph) else TaskGraph(tasks)
        if on_failure not in ("raise", "skip"):
            raise EngineError(
                f"on_failure must be 'raise' or 'skip', got {on_failure!r}")
        codec_for = _resolve_codec(codec)
        bus = telemetry or self.telemetry or TelemetryBus()
        n_tasks = len(graph)
        started = time.perf_counter()
        seeds = self._task_seeds(graph)
        tele = _RunTelemetry(bus, graph, stage_of, self.backend)

        results: List[Any] = [None] * n_tasks
        statuses: Dict[str, str] = {}
        errors: Dict[str, str] = {}
        keys: List[Optional[str]] = [None] * n_tasks

        remaining = [len(task.depends_on) for task in graph]
        ready: deque = deque(i for i, task in enumerate(graph)
                             if not task.depends_on)
        in_flight = 0

        def complete(index: int, result: Any, from_cache: bool) -> None:
            """Record a finished task and release its children."""
            task = graph[index]
            results[index] = result
            statuses[task.task_id] = STATUS_CACHED if from_cache \
                else STATUS_EXECUTED
            for child_id in graph.dependents(task.task_id):
                child_index = graph.index_of(child_id)
                remaining[child_index] -= 1
                if remaining[child_index] == 0 and \
                        statuses.get(child_id) != STATUS_SKIPPED:
                    ready.append(child_index)

        def fail(index: int, exc: BaseException) -> None:
            """Record a failure and mark the whole subtree below it skipped."""
            task = graph[index]
            statuses[task.task_id] = STATUS_FAILED
            errors[task.task_id] = str(exc)
            tele.failed(task, exc)
            for desc_id in graph.descendants(task.task_id):
                if desc_id not in statuses:
                    statuses[desc_id] = STATUS_SKIPPED
                    tele.skipped(desc_id)

        fn = functools.partial(_run_task, worker, context)
        cancelled = False
        with self.backend.stream(fn) as stream:
            while ready or in_flight:
                if cancel is not None and not cancelled and cancel():
                    cancelled = True
                if cancelled:
                    # Stop dispatching; keep draining what is in flight so
                    # completed work still reaches the cache.
                    ready.clear()
                # Dispatch everything runnable; cache hits complete inline
                # (and may push newly unblocked children back onto `ready`).
                while ready:
                    index = ready.popleft()
                    task = graph[index]
                    if statuses.get(task.task_id) == STATUS_SKIPPED:
                        continue
                    keys[index] = self._cache_key(task, seeds[index])
                    if keys[index] is not None:
                        stored = self.cache.get(keys[index])
                        if stored is not MISS:
                            tele.cache_hit(task)
                            complete(index, codec_for(task).decode(stored),
                                     from_cache=True)
                            continue
                    inputs = {dep: results[graph.index_of(dep)]
                              for dep in task.depends_on}
                    stream.submit((index, task, seeds[index], inputs))
                    tele.submitted(task)
                    in_flight += 1
                if not in_flight:
                    continue
                item, ok, value = stream.next_outcome()
                in_flight -= 1
                index = item[0]
                if ok:
                    _, result, duration, span = value
                    task = graph[index]
                    if keys[index] is not None:
                        self.cache.put(keys[index],
                                       codec_for(task).encode(result),
                                       task_id=task.task_id, spec=task.spec)
                    tele.executed(task, duration, span)
                    complete(index, result, from_cache=False)
                else:
                    fail(index, value)

        if cancelled:
            for task in graph:
                if task.task_id not in statuses:
                    statuses[task.task_id] = STATUS_SKIPPED
                    tele.skipped(task.task_id)

        # Folded before a potential on_failure="raise", so the trace of a
        # failing run still reconciles with its report.
        report = tele.finished(started)
        run = EngineRun(results=results, report=report, task_ids=graph.ids(),
                        statuses=statuses, errors=errors,
                        cancelled=cancelled)
        if errors and on_failure == "raise":
            first_id = run.failed_tasks()[0]
            error = TaskExecutionError(
                f"{len(errors)} task(s) failed and {report.n_skipped} "
                f"dependent task(s) were skipped; first failure: "
                f"{first_id!r}: {errors[first_id]}")
            error.run = run
            raise error
        return run
