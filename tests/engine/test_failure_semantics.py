"""One failure-semantics matrix over every backend and graph shape.

Every :meth:`CampaignEngine.run` goes through the same topological
scheduler, so a failing task, ``on_failure="skip"`` and a ``cancel`` probe
must end a run identically on the serial, process-pool and socket backends,
whether the graph has dependency edges or not: the same statuses, errors,
skipped tasks and report counts, the completed run attached to the raised
:class:`TaskExecutionError` as ``.run``, and a cache artifact for every task
that completed.
"""

import os

import pytest

from repro.circuit import TaskExecutionError
from repro.engine import (MISS, CampaignEngine, ResultCache, SerialBackend,
                          SharedMemoryBackend, Task, TaskGraph)
from repro.service import SocketBackend


def _worker(context, task, rng, inputs):
    if task.payload is None:
        raise ValueError(f"boom in {task.task_id}")
    return task.payload + sum(inputs.values())


def _task(task_id, payload, depends_on=()):
    return Task(task_id=task_id, payload=payload, depends_on=depends_on,
                spec={"op": "failure-matrix", "id": task_id},
                deterministic=True)


def _edge_free():
    """t0..t5, all roots; t3 fails."""
    return TaskGraph([_task(f"t{i}", None if i == 3 else i)
                      for i in range(6)])


def _diamond():
    """root -> mid/0..2 -> leaf; mid/1 fails, so leaf is skipped."""
    graph = TaskGraph([_task("root", 1)])
    for i in range(3):
        graph.add(_task(f"mid/{i}", None if i == 1 else 10 + i, ("root",)))
    graph.add(_task("leaf", 100, ("mid/0", "mid/1", "mid/2")))
    return graph


SHAPES = {"edge-free": _edge_free, "diamond": _diamond}

EDGE_FREE_STATUSES = {"t0": "executed", "t1": "executed", "t2": "executed",
                      "t3": "failed", "t4": "executed", "t5": "executed"}
DIAMOND_STATUSES = {"root": "executed", "mid/0": "executed",
                    "mid/1": "failed", "mid/2": "executed", "leaf": "skipped"}

#: (shape, run) -> (statuses, raises, cancelled).  The cancel probe fires
#: on its second poll: after the first dispatch round, so an edge-free
#: graph is already wholly in flight (and drains, failure included) while
#: the diamond has only run its root.
EXPECTED = {
    ("edge-free", "raise"): (EDGE_FREE_STATUSES, True, False),
    ("edge-free", "skip"): (EDGE_FREE_STATUSES, False, False),
    ("edge-free", "cancel"): (EDGE_FREE_STATUSES, True, True),
    ("diamond", "raise"): (DIAMOND_STATUSES, True, False),
    ("diamond", "skip"): (DIAMOND_STATUSES, False, False),
    ("diamond", "cancel"): (
        {"root": "executed", "mid/0": "skipped", "mid/1": "skipped",
         "mid/2": "skipped", "leaf": "skipped"}, False, True),
}


def _second_poll_fires():
    polls = []

    def probe():
        polls.append(None)
        return len(polls) >= 2
    return probe


@pytest.fixture(scope="module")
def socket_backend():
    """Two spawned socket workers that can import this module's worker."""
    here = os.path.dirname(os.path.abspath(__file__))
    saved = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = here + (os.pathsep + saved if saved else "")
    try:
        backend = SocketBackend("tcp:127.0.0.1:0", spawn_workers=2)
    finally:
        if saved is None:
            del os.environ["PYTHONPATH"]
        else:
            os.environ["PYTHONPATH"] = saved
    with backend:
        yield backend


@pytest.fixture
def backend(request, socket_backend):
    return {"serial": SerialBackend,
            "shm": lambda: SharedMemoryBackend(max_workers=2),
            "socket": lambda: socket_backend}[request.param]()


@pytest.mark.parametrize("run_kind", ["raise", "skip", "cancel"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("backend", ["serial", "shm", "socket"],
                         indirect=True)
def test_failure_semantics_match_on_every_path(backend, shape, run_kind,
                                               tmp_path):
    statuses, raises, cancelled = EXPECTED[(shape, run_kind)]
    graph = SHAPES[shape]()
    cache = ResultCache(str(tmp_path), namespace="failure-matrix")
    engine = CampaignEngine(backend=backend, cache=cache)
    kwargs = {"on_failure": "skip"} if run_kind == "skip" else \
        {"cancel": _second_poll_fires()} if run_kind == "cancel" else {}
    if raises:
        with pytest.raises(TaskExecutionError) as excinfo:
            engine.run(graph, _worker, **kwargs)
        run = excinfo.value.run
    else:
        run = engine.run(graph, _worker, **kwargs)

    assert run.statuses == statuses
    assert run.cancelled is cancelled
    failed = [tid for tid in graph.ids() if statuses[tid] == "failed"]
    assert run.errors == {tid: f"task {tid!r} failed: ValueError: boom in "
                          f"{tid}" for tid in failed}
    assert run.skipped_tasks() == [tid for tid in graph.ids()
                                   if statuses[tid] == "skipped"]
    executed = [task for task in graph
                if statuses[task.task_id] == "executed"]
    report = run.report
    assert (report.n_tasks, report.n_executed, report.n_cache_hits,
            report.n_failed, report.n_skipped) == \
        (len(graph), len(executed), 0, len(failed),
         len(run.skipped_tasks()))
    for task in graph:
        stored = cache.get(cache.key_for(task.spec, None))
        if task in executed:
            assert stored == run.result_for(task.task_id)
        else:
            assert stored is MISS
            assert run.result_for(task.task_id) is None
