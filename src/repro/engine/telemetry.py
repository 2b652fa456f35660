"""Engine telemetry: typed events, worker-side spans, pluggable sinks.

:class:`~repro.engine.CampaignEngine` is a black box while it runs unless
something watches it.  This module is that something: the engine emits a
stream of :class:`TelemetryEvent` records through a :class:`TelemetryBus`
(one event per scheduling decision and per task lifecycle transition), and
the bus fans each event out to any number of :class:`TelemetrySink`\\ s --
the crash-safe :class:`JsonlTraceSink`, the live terminal
:class:`ProgressSink` and the warehouse indexer
(:class:`~repro.warehouse.WarehouseSink`).  Everything else reads the JSONL
trace afterwards: :func:`chrome_trace` converts it for Perfetto /
``chrome://tracing`` and :mod:`repro.engine.trace` summarises it.

The event stream is *logical*: the same workload produces the same event
multiset (modulo timestamps, ordering and worker pids) whatever backend
runs it, which is what the telemetry equivalence suite pins.  It is also
the wire format the campaign daemon (:mod:`repro.service.daemon`) tails
for its clients, so the schema is deliberately flat JSON.

Event schema
------------
Every event carries ``type``, a monotonic timestamp ``t`` (seconds,
``time.monotonic()`` -- comparable across processes of one machine), and
optionally ``task_id``, ``stage``, ``group``, ``worker`` (pid) and a
``data`` mapping:

=================  ==========================================================
``run_started``    ``data``: n_tasks, backend, workers, mode, stages
``task_submitted`` task handed to the backend; ``data.deps`` lists parents
``task_started``   worker began executing (``t`` is the *worker-side* clock)
``task_completed`` ``data``: queue_wait, deserialize, execute, ship,
                   worker_seconds, duration
``cache_hit``      task satisfied from the result cache (``data.deps``)
``task_failed``    worker raised; ``data.error`` has the message
``task_skipped``   never dispatched because an ancestor failed
``stage_completed`` every task of a stage reached a terminal state
``run_finished``   ``data``: counts, wall_time, payload bytes
=================  ==========================================================

Worker-side spans
-----------------
Each executed task ships a :class:`TaskSpan` back with its result (through
every backend): the worker pid, the monotonic receipt/finish times and
the setup ("deserialize") share.  The parent combines it with its own
submit/receive timestamps into the four per-task phases:

* ``queue_wait`` -- submit-to-worker-pickup latency,
* ``deserialize`` -- worker-side setup before the user worker runs,
* ``execute`` -- the user worker itself,
* ``ship`` -- worker-finish-to-parent-receive latency (result transport).
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import (Any, Dict, IO, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

from ..circuit.errors import EngineError

#: Every event type the bus accepts, in rough lifecycle order.
EVENT_TYPES: Tuple[str, ...] = (
    "run_started", "task_submitted", "task_started", "task_completed",
    "cache_hit", "task_failed", "task_skipped", "stage_completed",
    "run_finished")


class TaskSpan(NamedTuple):
    """Worker-side timing of one executed task, shipped with its result.

    Timestamps are ``time.monotonic()`` seconds; on Linux that clock is
    system-wide, so parent and worker readings are directly comparable.
    """

    #: Pid of the process that executed the task.
    worker: int
    #: Monotonic time the worker picked the task up.
    started_at: float
    #: Monotonic time the worker finished (result ready to ship).
    finished_at: float
    #: Seconds of worker-side setup (rng construction, input unpacking)
    #: before the user worker ran.
    deserialize: float


@dataclass(frozen=True)
class TelemetryEvent:
    """One engine lifecycle event (see the module docstring for the schema)."""

    type: str
    t: float
    task_id: Optional[str] = None
    stage: Optional[str] = None
    group: Optional[str] = None
    worker: Optional[int] = None
    data: Mapping[str, Any] = field(default_factory=dict)

    def to_jsonable(self) -> Dict[str, Any]:
        """Flat JSON form; ``None`` fields are dropped, ``data`` only when
        non-empty."""
        record: Dict[str, Any] = {"type": self.type, "t": self.t}
        for key in ("task_id", "stage", "group", "worker"):
            value = getattr(self, key)
            if value is not None:
                record[key] = value
        if self.data:
            record["data"] = dict(self.data)
        return record

    @classmethod
    def from_jsonable(cls, record: Mapping[str, Any]) -> "TelemetryEvent":
        return cls(type=record["type"], t=record["t"],
                   task_id=record.get("task_id"), stage=record.get("stage"),
                   group=record.get("group"), worker=record.get("worker"),
                   data=record.get("data", {}))


class TelemetrySink:
    """Receives every event of a run; subclass and override :meth:`handle`."""

    def handle(self, event: TelemetryEvent) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources; called once by the owning bus."""


class TelemetryBus:
    """Fans engine events out to sinks; the engine's ``telemetry`` argument.

    The bus validates event types (the schema is a wire format -- a typo
    must fail loudly, not silently produce an event no consumer knows) and
    stamps ``time.monotonic()`` on events that do not bring their own
    timestamp.  Usable as a context manager; closing the bus closes every
    sink.
    """

    def __init__(self, sinks: Sequence[TelemetrySink] = ()) -> None:
        self.sinks: List[TelemetrySink] = list(sinks)

    def emit(self, event_type: str, t: Optional[float] = None,
             task_id: Optional[str] = None, stage: Optional[str] = None,
             group: Optional[str] = None, worker: Optional[int] = None,
             **data: Any) -> TelemetryEvent:
        if event_type not in EVENT_TYPES:
            raise EngineError(
                f"unknown telemetry event type {event_type!r}; "
                f"known: {', '.join(EVENT_TYPES)}")
        event = TelemetryEvent(
            type=event_type, t=time.monotonic() if t is None else t,
            task_id=task_id, stage=stage, group=group, worker=worker,
            data=data)
        for sink in self.sinks:
            sink.handle(event)
        return event

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> "TelemetryBus":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ================================================================ JSONL trace

class JsonlTraceSink(TelemetrySink):
    """Appends one JSON object per event to a trace file.

    The file is opened in append mode and flushed after every line, so a
    crashed or killed run leaves a readable trace with at most one
    truncated trailing line -- which :func:`read_trace` tolerates.
    """

    def __init__(self, path: Any) -> None:
        self.path = os.fspath(path)
        self._handle: Optional[IO[str]] = open(self.path, "a",
                                               encoding="utf-8")

    def handle(self, event: TelemetryEvent) -> None:
        if self._handle is None:
            raise EngineError(f"trace sink {self.path!r} is closed")
        self._handle.write(json.dumps(event.to_jsonable(), sort_keys=True)
                           + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def read_trace(path: Any) -> List[TelemetryEvent]:
    """Load a JSONL trace written by :class:`JsonlTraceSink`.

    A truncated *final* line (the signature of a crashed writer) is
    silently dropped; malformed JSON anywhere else raises
    :class:`~repro.circuit.errors.EngineError`, since that means the file
    is not a trace.
    """
    events: List[TelemetryEvent] = []
    try:
        with open(os.fspath(path), "r", encoding="utf-8") as handle:
            lines = handle.read().split("\n")
    except OSError as exc:
        raise EngineError(f"cannot read trace {os.fspath(path)!r}: "
                          f"{exc.strerror or exc}") from exc
    while lines and not lines[-1].strip():
        lines.pop()
    for number, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
            events.append(TelemetryEvent.from_jsonable(record))
        except (ValueError, KeyError) as exc:
            if number == len(lines):
                break  # truncated trailing line of an interrupted run
            raise EngineError(
                f"{path}: line {number} is not a telemetry event: {exc}") \
                from exc
    return events


def follow_trace(path: Any,
                 stop: Optional[Any] = None,
                 poll_interval: float = 0.1,
                 timeout: Optional[float] = None):
    """Live-tail a JSONL trace: yield events as the writer appends them.

    The streaming counterpart of :func:`read_trace`, and what the campaign
    daemon's ``attach`` verb is built on: a :class:`JsonlTraceSink` flushes
    one complete line per event, so a reader polling the file sees whole
    events (a partial final line is left in the buffer until its newline
    arrives).  The generator ends when

    * a ``run_finished`` event is yielded (the trace's natural terminator),
    * *stop* (any object with a truthy ``is_set()``, e.g. a
      ``threading.Event``) fires -- checked only once the file is fully
      drained, so a stop raised after the writer finished still yields
      every event, or
    * *timeout* seconds pass without the file growing (None = wait
      forever).

    The file may not exist yet when following starts (the run has not
    opened its sink); that counts as "not growing" against *timeout*.
    """
    buffered = b""
    offset = 0
    quiet_since = time.monotonic()
    while True:
        try:
            with open(os.fspath(path), "rb") as handle:
                handle.seek(offset)
                chunk = handle.read()
        except OSError:
            chunk = b""
        if chunk:
            offset += len(chunk)
            buffered += chunk
            quiet_since = time.monotonic()
            while b"\n" in buffered:
                raw, buffered = buffered.split(b"\n", 1)
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                try:
                    event = TelemetryEvent.from_jsonable(json.loads(line))
                except (ValueError, KeyError) as exc:
                    raise EngineError(
                        f"{path}: not a telemetry event: {line[:200]!r}: "
                        f"{exc}") from exc
                yield event
                if event.type == "run_finished":
                    return
        else:
            if stop is not None and stop.is_set():
                return
            if timeout is not None and \
                    time.monotonic() - quiet_since > timeout:
                return
            time.sleep(poll_interval)


# ====================================================== Chrome trace exporter

def chrome_trace(events: Sequence[TelemetryEvent]) -> Dict[str, Any]:
    """Convert an event stream to the Chrome trace-event JSON format.

    The result loads in Perfetto / ``chrome://tracing``: one named row per
    worker pid carrying an ``X`` (complete) slice per executed task, plus a
    ``scheduler`` row with instant events for cache hits, failures, skips
    and stage boundaries.  Timestamps are microseconds relative to the
    first event of the stream.
    """
    if not events:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    base = min(event.t for event in events)

    def ts(t: float) -> float:
        return round((t - base) * 1e6, 3)

    rows: List[Dict[str, Any]] = []
    workers_seen: List[int] = []
    for event in events:
        worker = event.worker
        if event.type == "task_completed" and worker is not None:
            if worker not in workers_seen:
                workers_seen.append(worker)
            span = event.data.get("worker_seconds", 0.0)
            start = event.t - event.data.get("ship", 0.0) - span
            rows.append({
                "ph": "X", "name": event.task_id or "task",
                "cat": event.stage or event.group or "task",
                "pid": 1, "tid": worker,
                "ts": ts(start), "dur": round(span * 1e6, 3),
                "args": {key: event.data[key]
                         for key in ("queue_wait", "deserialize", "execute",
                                     "ship", "duration")
                         if key in event.data}})
        elif event.type in ("cache_hit", "task_failed", "task_skipped",
                            "run_started", "stage_completed", "run_finished"):
            name = {"cache_hit": f"cache {event.task_id}",
                    "task_failed": f"FAIL {event.task_id}",
                    "task_skipped": f"skip {event.task_id}",
                    "stage_completed": f"stage {event.stage} done",
                    }.get(event.type, event.type)
            rows.append({
                "ph": "i", "s": "t", "name": name,
                "cat": event.type, "pid": 1, "tid": 0,
                "ts": ts(event.t),
                "args": dict(event.data)})
    meta = [{"ph": "M", "name": "thread_name", "pid": 1, "tid": 0,
             "args": {"name": "scheduler"}},
            {"ph": "M", "name": "thread_sort_index", "pid": 1, "tid": 0,
             "args": {"sort_index": -1}}]
    for worker in sorted(workers_seen):
        meta.append({"ph": "M", "name": "thread_name", "pid": 1,
                     "tid": worker, "args": {"name": f"worker {worker}"}})
    return {"traceEvents": meta + rows, "displayTimeUnit": "ms"}


# ========================================================== terminal progress

class ProgressSink(TelemetrySink):
    """Live single-line progress: per-stage done/total, tasks/s and ETA.

    Rendering is throttled to ``min_interval`` seconds and refreshed in
    place with ``\\r``; terminal events (stage/run boundaries) always
    render.  The output stream is resolved at emit time (default
    ``sys.stderr``) so the sink composes with pytest's capture fixtures.
    """

    def __init__(self, stream: Optional[IO[str]] = None,
                 min_interval: float = 0.1) -> None:
        self._stream = stream
        self.min_interval = min_interval
        self._last_render = float("-inf")
        self._started: Optional[float] = None
        self._n_tasks = 0
        self._done = 0
        self._executed = 0
        self._stage_totals: Dict[str, int] = {}
        self._stage_done: Dict[str, int] = {}
        self._line_open = False

    @property
    def stream(self) -> IO[str]:
        return self._stream if self._stream is not None else sys.stderr

    def handle(self, event: TelemetryEvent) -> None:
        force = False
        if event.type == "run_started":
            self._started = event.t
            self._n_tasks = event.data.get("n_tasks", 0)
            self._stage_totals = dict(event.data.get("stages", {}))
            self._stage_done = {stage: 0 for stage in self._stage_totals}
            self._done = self._executed = 0
            force = True
        elif event.type in ("task_completed", "cache_hit", "task_failed",
                            "task_skipped"):
            self._done += 1
            if event.type == "task_completed":
                self._executed += 1
            if event.stage is not None:
                self._stage_done[event.stage] = \
                    self._stage_done.get(event.stage, 0) + 1
        elif event.type in ("stage_completed", "run_finished"):
            force = True
        if not force and event.t - self._last_render < self.min_interval:
            return
        self._last_render = event.t
        elapsed = max(event.t - self._started, 1e-9) \
            if self._started is not None else None
        line = self.render(self._done, self._n_tasks, self._executed,
                           elapsed, self._stage_done, self._stage_totals)
        self.stream.write("\r" + line)
        self._line_open = True
        if event.type == "run_finished":
            self.stream.write("\n")
            self._line_open = False
        self.stream.flush()

    @staticmethod
    def render(done: int, total: int, executed: int,
               elapsed: Optional[float],
               stage_done: Mapping[str, int],
               stage_totals: Mapping[str, int]) -> str:
        """The progress line for a given counter state (pure; tested).

        ``tasks/s`` is the *executed* throughput (cache hits are lookups,
        not work, matching ``CampaignReport.tasks_per_second``).  The ETA is
        based on the *overall* completion rate: ``remaining`` counts every
        unresolved task, including ones that will resolve as cache hits, so
        scaling it by the executed-only rate would wildly inflate warm-cache
        ETAs (and a fully-warm run would show none at all).
        """
        parts = [f"{done}/{total} tasks"]
        for stage, stage_total in stage_totals.items():
            parts.append(f"{stage} {stage_done.get(stage, 0)}/{stage_total}")
        if elapsed is not None:
            parts.append(f"{executed / elapsed:.1f} tasks/s")
            completion_rate = done / elapsed
            remaining = total - done
            if 0 < remaining and completion_rate > 0:
                parts.append(f"ETA {remaining / completion_rate:.0f}s")
        return "  ".join(parts)

    def close(self) -> None:
        if self._line_open:
            self.stream.write("\n")
            self._line_open = False
            self.stream.flush()
