"""Execution backends of the campaign engine.

A backend runs a picklable function over work items through one interface:
:meth:`ExecutionBackend.stream` opens a :class:`WorkStream` that accepts
items one at a time and yields outcomes as they complete.  The topological
scheduler of :mod:`repro.engine.executor` submits a task the moment its
parents finish -- for an edge-free graph, every task up front.

Two local backends are provided:

* :class:`SerialBackend` -- runs items one by one in the calling process; the
  default, bit-identical to the historical serial loops of the drivers.
* :class:`SharedMemoryBackend` -- the process-pool backend: one
  :class:`concurrent.futures.ProcessPoolExecutor` future per item.  The work
  function -- with the campaign context it closes over (the behavioral ADC,
  the calibrated windows, ...) -- is pickled **once** when the pool starts
  and handed to the pool initializer as its argument; each worker unpickles
  it there, so submissions carry only the bare work items (task id, seed
  material, small spec dict).

Because every task carries its own seed material (see
:mod:`repro.engine.executor`) the pool backend produces results identical to
the serial backend regardless of worker count or completion order.

Workers and their context must be picklable for the pool backend
(module-level functions, dataclasses, numpy objects); closures and lambdas
only work with the serial backend.
"""

from __future__ import annotations

import os
import pickle
import sys
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from ..circuit.errors import EngineError

#: Pickle protocol of every payload shipped to pool workers (the pickled
#: work function, and the opt-in payload measurements -- one protocol so
#: measured bytes match shipped bytes).
_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: An item handed to a backend; the engine submits
#: ``(index, task, seed_material, inputs)``.
WorkItem = Any
#: ``fn(item) -> (index, result, duration_seconds, task_span)`` -- the
#: :class:`~repro.engine.telemetry.TaskSpan` carries the worker-side clock
#: readings back for telemetry; backends treat the tuple opaquely.
WorkFn = Callable[[WorkItem], Any]
#: A stream outcome: ``(item, ok, value)`` where ``value`` is ``fn(item)``'s
#: return value when ``ok`` and the raised exception otherwise.
StreamOutcome = Tuple[WorkItem, bool, Any]


class WorkStream(ABC):
    """Incremental submission channel opened by :meth:`ExecutionBackend.stream`.

    The engine's scheduler submits items as their dependencies resolve and
    drains completions one at a time; a stream therefore never sees the whole
    work list and must not reorder bookkeeping around it.  Item failures are
    *reported*, not raised: :meth:`next_outcome` returns ``(item, ok, value)``
    triples so the scheduler can mark the task failed, skip its descendants
    and keep the rest of the graph running.

    Streams are context managers; :meth:`close` releases any pool resources.
    """

    @abstractmethod
    def submit(self, item: WorkItem) -> None:
        """Queue one item for execution."""

    @abstractmethod
    def next_outcome(self) -> StreamOutcome:
        """Block until one submitted item finishes; return its outcome.

        Raises :class:`EngineError` when nothing is pending or the backing
        pool died.
        """

    def close(self) -> None:
        """Release backend resources; pending items may be abandoned."""

    def __enter__(self) -> "WorkStream":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class _SerialWorkStream(WorkStream):
    """FIFO stream running items in the calling process on demand."""

    def __init__(self, fn: WorkFn) -> None:
        self._fn = fn
        self._queue: deque = deque()

    def submit(self, item: WorkItem) -> None:
        self._queue.append(item)

    def next_outcome(self) -> StreamOutcome:
        if not self._queue:
            raise EngineError("no submitted work is pending on the stream")
        item = self._queue.popleft()
        try:
            return item, True, self._fn(item)
        except Exception as exc:
            return item, False, exc


@dataclass
class PayloadReport:
    """Bytes pickled to pool workers during one backend run (opt-in).

    Populated on :attr:`SharedMemoryBackend.last_payload` when the backend
    is constructed with ``measure_payload=True``; measuring re-pickles every
    submission, so it is meant for benchmarks, not production runs.

    ``task_bytes`` counts the per-submission payloads (the bare work items);
    ``context_bytes`` counts the one-time pickle of the work function and
    the campaign context it closes over, handed to the pool initializer.
    """

    n_items: int = 0
    task_bytes: int = 0
    context_bytes: int = 0

    @property
    def per_task_bytes(self) -> float:
        """Average bytes shipped per work item, excluding the context."""
        return self.task_bytes / self.n_items if self.n_items else 0.0


# Per-process slot for the pool work function, installed once per worker by
# the pool initializer, so submissions only pickle the (small) items instead
# of re-shipping the function + campaign context.
_WORKER_FN: Optional[WorkFn] = None


def _install_fn(body: bytes) -> None:
    global _WORKER_FN
    _WORKER_FN = pickle.loads(body)


def _run_installed_item(item: WorkItem) -> Tuple[bool, Any]:
    try:
        return True, _WORKER_FN(item)
    except Exception as exc:
        return False, exc


class _PoolWorkStream(WorkStream):
    """Stream over a :class:`ProcessPoolExecutor`, one future per item.

    The work function is pickled once and reaches the workers as the pool
    initializer's argument; submissions pickle only the item.  Closing the
    stream shuts the pool down.
    """

    def __init__(self, fn: WorkFn, max_workers: int,
                 report: Optional[PayloadReport] = None,
                 mp_context: Any = None) -> None:
        from concurrent.futures import ProcessPoolExecutor
        body = pickle.dumps(fn, protocol=_PICKLE_PROTOCOL)
        if report is not None:
            report.context_bytes = len(body)
        self._pool = ProcessPoolExecutor(
            max_workers=max_workers, mp_context=mp_context,
            initializer=_install_fn, initargs=(body,))
        self._report = report
        self._items: dict = {}
        self._pending: set = set()
        self._ready: deque = deque()

    def submit(self, item: WorkItem) -> None:
        if self._report is not None:
            self._report.n_items += 1
            self._report.task_bytes += len(
                pickle.dumps(item, protocol=_PICKLE_PROTOCOL))
        future = self._pool.submit(_run_installed_item, item)
        self._items[future] = item
        self._pending.add(future)

    def next_outcome(self) -> StreamOutcome:
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool
        if self._ready:
            return self._ready.popleft()
        if not self._pending:
            raise EngineError("no submitted work is pending on the stream")
        done, self._pending = wait(self._pending,
                                   return_when=FIRST_COMPLETED)
        for future in done:
            item = self._items.pop(future)
            try:
                ok, value = future.result()
            except BrokenProcessPool as exc:
                raise EngineError(
                    "a campaign worker process died unexpectedly (crashed "
                    "or was killed); rerun serially to locate the failing "
                    "task") from exc
            except Exception as exc:
                # e.g. the worker's result (or exception) failed to pickle
                # on its way back: report it as that item's failure instead
                # of aborting the whole stream.
                ok, value = False, exc
            self._ready.append((item, ok, value))
        return self._ready.popleft()

    def close(self) -> None:
        try:
            for future in self._pending:
                future.cancel()
            self._pool.shutdown(wait=True)
        except BaseException:
            # A consumer-side interrupt (e.g. a KeyboardInterrupt delivered
            # while the pool drains, or a second Ctrl-C during the graceful
            # shutdown above) must not leave the pool behind: give up on
            # the workers without blocking and re-raise.  cancel_futures
            # only exists on Python >= 3.9; the explicit cancel loop above
            # already covered the pending futures.
            if sys.version_info >= (3, 9):
                self._pool.shutdown(wait=False, cancel_futures=True)
            else:  # pragma: no cover (requires-python allows 3.8)
                self._pool.shutdown(wait=False)
            raise


class ExecutionBackend(ABC):
    """Runs a function over work items submitted through a stream."""

    #: Short name used in reports.
    name: str = "backend"

    #: Number of OS processes doing the work (1 for in-process execution).
    workers: int = 1

    @abstractmethod
    def stream(self, fn: WorkFn) -> WorkStream:
        """Open an incremental :class:`WorkStream` executing ``fn``."""


class SerialBackend(ExecutionBackend):
    """Runs every item in the calling process, in submission order."""

    name = "serial"
    workers = 1

    def stream(self, fn: WorkFn) -> WorkStream:
        return _SerialWorkStream(fn)


class SharedMemoryBackend(ExecutionBackend):
    """The process-pool backend; the campaign context ships once per pool.

    Each :meth:`stream` starts a :class:`ProcessPoolExecutor`.  The work
    function -- together with the campaign context it closes over (the
    behavioral ADC spec, calibration windows, defect universe, ...) -- is
    pickled **once** and passed to the pool initializer, which unpickles it
    in every worker: under ``fork`` the workers inherit the bytes, under
    ``spawn``/``forkserver`` each receives them once at start-up.
    Submissions then carry only the bare work items.  Results are
    bit-identical to the serial backend under the same seed: the transport
    never touches seeding or completion-order bookkeeping.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to ``os.cpu_count()``.
    measure_payload:
        When True, every run records the bytes shipped to the pool on
        :attr:`last_payload` (a :class:`PayloadReport`).  Measuring
        re-pickles each submission, so leave it off outside benchmarks.
    mp_context:
        Worker start method: ``"fork"``, ``"spawn"`` or ``"forkserver"``
        (whatever :func:`multiprocessing.get_all_start_methods` offers on
        this platform).  ``None`` (the default) keeps the interpreter's
        default start method.  Results are identical under any start method
        because every task carries its own seed material.
    """

    name = "shm"

    def __init__(self, max_workers: Optional[int] = None,
                 measure_payload: bool = False,
                 mp_context: Optional[str] = None) -> None:
        if max_workers is not None and max_workers <= 0:
            raise EngineError(f"max_workers must be positive, got {max_workers}")
        if mp_context is not None:
            import multiprocessing
            valid = multiprocessing.get_all_start_methods()
            if mp_context not in valid:
                raise EngineError(
                    f"mp_context must be one of {sorted(valid)} on this "
                    f"platform, got {mp_context!r}")
        self.workers = max_workers or (os.cpu_count() or 1)
        self.measure_payload = measure_payload
        self.mp_context = mp_context
        #: Payload measurement of the most recent run (None unless
        #: ``measure_payload`` is set).
        self.last_payload: Optional[PayloadReport] = None

    def _pool_context(self) -> Any:
        """The ``multiprocessing`` context handed to the pool (None = default)."""
        if self.mp_context is None:
            return None
        import multiprocessing
        return multiprocessing.get_context(self.mp_context)

    def stream(self, fn: WorkFn) -> WorkStream:
        self.last_payload = PayloadReport() if self.measure_payload else None
        return _PoolWorkStream(fn, self.workers, report=self.last_payload,
                               mp_context=self._pool_context())
