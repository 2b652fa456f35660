"""Task abstraction of the campaign-execution engine.

A :class:`Task` describes one unit of work of a campaign -- one defect
injection + SymBIST run, one Monte Carlo sample, one ``(k, yield)`` point,
one reduction over other tasks' results -- without saying anything about
*how* it is executed.  The work itself is performed by a *worker* callable
(see :mod:`repro.engine.executor`) applied to the task; keeping the two
separate is what lets the same campaign run serially, across a process pool,
or straight out of the result cache.

A :class:`TaskGraph` is an ordered collection of tasks with optional
*dependency edges*: a task may declare, via :attr:`Task.depends_on`, that it
consumes the results of earlier tasks.  Because every dependency must already
be in the graph when a task is added, insertion order is always a valid
topological order and the graph is a DAG *by construction* -- no cycle
detection pass is needed.  Graphs without edges behave exactly as before:
an ordered bag of independent tasks (the order defines deterministic
per-task seeding and result assembly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from ..circuit.errors import EngineError


@dataclass(frozen=True)
class Task:
    """One unit of campaign work.

    Attributes
    ----------
    task_id:
        Unique, stable identifier within one campaign (used in progress
        reporting, error messages and cache records).
    payload:
        The worker's input (a defect, a sample index, a ``k`` value, ...).
        Must be picklable when the task is executed by a process-pool backend.
    spec:
        Optional JSON-serialisable description of *what the task computes*.
        When present (and a cache is configured) it becomes part of the
        content-addressed cache key, so any change to the spec invalidates
        cached results.  Tasks without a spec are never cached.  For a
        dependent task the spec must describe the parents' work too (e.g. by
        embedding the parent spec), since the result depends on it.
    seed:
        Optional explicit seed material (an ``int`` or
        ``np.random.SeedSequence``) for the task's random generator.  When
        omitted the engine derives one child ``SeedSequence`` per task from
        the campaign root seed, so results are independent of worker count
        and completion order.
    deterministic:
        True when the worker ignores its random generator (e.g. defect
        simulation).  Deterministic tasks exclude the seed material from
        their cache key, so cached results survive task reordering.
    group:
        Optional label used to aggregate timings in reports (e.g. the block
        path of a defect, or a pipeline stage name).
    depends_on:
        Ids of the tasks whose results this task consumes.  The engine only
        dispatches the task once every parent has completed, and hands the
        parents' results to the worker as its ``inputs`` mapping (see
        :meth:`repro.engine.CampaignEngine.run`).  Order is preserved, so
        reduction workers can pool parent results deterministically.
    weight:
        Number of logical work items this task evaluates (e.g. the member
        count of a batched defect task).  Reports and telemetry count tasks
        for throughput but sum weights for per-item totals
        (the ``items`` of :class:`~repro.engine.trace.StageRow`).
    """

    task_id: str
    payload: Any = None
    spec: Optional[Mapping[str, Any]] = None
    seed: Optional[Any] = None
    deterministic: bool = False
    group: Optional[str] = None
    depends_on: Tuple[str, ...] = ()
    weight: int = 1

    def __post_init__(self) -> None:
        if not self.task_id:
            raise EngineError("a task needs a non-empty task_id")
        if self.weight < 1:
            raise EngineError(
                f"task {self.task_id!r} needs a positive weight, "
                f"got {self.weight}")
        deps = tuple(self.depends_on)
        object.__setattr__(self, "depends_on", deps)
        if self.task_id in deps:
            raise EngineError(
                f"task {self.task_id!r} cannot depend on itself")
        if len(set(deps)) != len(deps):
            raise EngineError(
                f"task {self.task_id!r} lists a duplicate dependency")


class TaskGraph:
    """Ordered collection of tasks with unique ids and dependency edges.

    Every task's dependencies must already be in the graph when the task is
    added (parents before children).  This makes insertion order a
    topological order and rules out cycles structurally, so
    :meth:`topological_order` is free and schedulers can walk the graph
    without a separate validation pass.
    """

    def __init__(self, tasks: Iterable[Task] = ()) -> None:
        self._tasks: List[Task] = []
        self._by_id: Dict[str, int] = {}
        self._dependents: Dict[str, List[str]] = {}
        self._n_edges = 0
        for task in tasks:
            self.add(task)

    def add(self, task: Task) -> None:
        """Add one task; its :attr:`~Task.depends_on` must already exist."""
        if task.task_id in self._by_id:
            raise EngineError(
                f"duplicate task id {task.task_id!r} in the task graph")
        for dep in task.depends_on:
            if dep not in self._by_id:
                raise EngineError(
                    f"task {task.task_id!r} depends on unknown task {dep!r}; "
                    f"add parents before their children")
        self._by_id[task.task_id] = len(self._tasks)
        self._tasks.append(task)
        for dep in task.depends_on:
            self._dependents.setdefault(dep, []).append(task.task_id)
        self._n_edges += len(task.depends_on)

    # ------------------------------------------------------------------ access
    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __getitem__(self, index: int) -> Task:
        return self._tasks[index]

    def index_of(self, task_id: str) -> int:
        try:
            return self._by_id[task_id]
        except KeyError as exc:
            raise EngineError(
                f"task {task_id!r} is not in the graph") from exc

    def get(self, task_id: str) -> Task:
        return self._tasks[self.index_of(task_id)]

    def ids(self) -> List[str]:
        return [t.task_id for t in self._tasks]

    def groups(self) -> List[str]:
        """Group labels present in the graph, in first-appearance order."""
        seen: Dict[str, None] = {}
        for task in self._tasks:
            if task.group is not None:
                seen.setdefault(task.group, None)
        return list(seen.keys())

    # ------------------------------------------------------------------- edges
    @property
    def has_edges(self) -> bool:
        """True when at least one task declares a dependency."""
        return self._n_edges > 0

    def dependencies(self, task_id: str) -> Tuple[str, ...]:
        """Parent ids of ``task_id`` (declaration order)."""
        return self.get(task_id).depends_on

    def dependents(self, task_id: str) -> List[str]:
        """Ids of the tasks that directly consume ``task_id``'s result."""
        self.index_of(task_id)  # raise for unknown ids
        return list(self._dependents.get(task_id, ()))

    def roots(self) -> List[str]:
        """Ids of the tasks with no dependencies, in insertion order."""
        return [t.task_id for t in self._tasks if not t.depends_on]

    def descendants(self, task_id: str) -> List[str]:
        """Every task reachable from ``task_id`` through dependency edges.

        Returned in insertion (== topological) order; used by the scheduler
        to skip the subtree below a failed task.
        """
        reached = {task_id}
        for task in self._tasks[self.index_of(task_id) + 1:]:
            if any(dep in reached for dep in task.depends_on):
                reached.add(task.task_id)
        reached.discard(task_id)
        return [t.task_id for t in self._tasks if t.task_id in reached]

    def topological_order(self) -> List[str]:
        """Task ids, parents always before children.

        By construction this is simply the insertion order (parents must be
        added first), which is also the order that defines per-task seeding.
        """
        return self.ids()
