"""Resource hygiene and payload accounting of :class:`SharedMemoryBackend`.

The process-pool backend must leave no ``/dev/shm`` segments outliving the
engine, whatever path shut it down, and must ship the campaign context once
per pool rather than with every task.  Its failure semantics are covered by
the backend matrix in ``test_failure_semantics.py``.
"""

import os

import pytest

from repro.circuit import EngineError, TaskExecutionError
from repro.engine import CampaignEngine, SharedMemoryBackend, Task, TaskGraph


# Module-level workers so the pool backend can pickle them.
def square_worker(context, task, rng, inputs):
    return task.payload ** 2


def failing_worker(context, task, rng, inputs):
    if task.payload == 3:
        raise ValueError("boom on task 3")
    return task.payload


def tasks_of(n):
    return TaskGraph([Task(task_id=f"t{i}", payload=i) for i in range(n)])


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test must leave /dev/shm exactly as it found it."""
    if not os.path.isdir("/dev/shm"):
        yield  # non-Linux: nothing to observe
        return
    before = set(os.listdir("/dev/shm"))
    yield
    leaked = {name for name in set(os.listdir("/dev/shm")) - before
              if name.startswith("psm_")}
    assert not leaked, f"leaked shared-memory segments: {leaked}"


class TestSegmentLifecycle:
    def test_batch_run_unlinks_segment(self):
        run = CampaignEngine(backend=SharedMemoryBackend(max_workers=2)).run(
            tasks_of(4), square_worker)
        assert run.results == [0, 1, 4, 9]
        # the autouse fixture asserts /dev/shm is clean afterwards

    def test_failed_batch_run_unlinks_segment(self):
        with pytest.raises(TaskExecutionError):
            CampaignEngine(backend=SharedMemoryBackend(max_workers=2)).run(
                tasks_of(5), failing_worker)

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                        reason="needs a POSIX shared-memory mount")
    def test_stream_owns_one_segment_until_closed(self):
        before = set(os.listdir("/dev/shm"))
        backend = SharedMemoryBackend(max_workers=1)
        stream = backend.stream(_echo_item)
        created = {name for name in set(os.listdir("/dev/shm")) - before
                   if name.startswith("psm_")}
        assert len(created) == 1
        stream.close()
        assert not (created & set(os.listdir("/dev/shm")))

    def test_stream_close_with_pending_items_unlinks(self):
        backend = SharedMemoryBackend(max_workers=1)
        with backend.stream(_echo_item) as stream:
            for i in range(3):
                stream.submit((i,))
            # close() without draining: futures cancelled, segment unlinked

    def test_stream_close_is_idempotent(self):
        backend = SharedMemoryBackend(max_workers=1)
        stream = backend.stream(_echo_item)
        stream.submit((0,))
        assert stream.next_outcome()[1] is True
        stream.close()
        stream.close()

    def test_consumer_interrupt_mid_iteration_unlinks(self):
        """A KeyboardInterrupt delivered while the consumer drains the
        stream (the realistic Ctrl-C during a long campaign) must not leak
        the /dev/shm segment."""
        backend = SharedMemoryBackend(max_workers=1)
        with pytest.raises(KeyboardInterrupt):
            with backend.stream(_echo_item) as stream:
                stream.submit((0,))
                assert stream.next_outcome()[1] is True
                stream.submit((1,))
                raise KeyboardInterrupt  # consumer-side, mid-iteration
        # the autouse fixture asserts /dev/shm is clean afterwards

    def test_interrupt_during_close_still_unlinks(self, monkeypatch):
        """A second Ctrl-C landing inside the graceful close() (while it
        waits for in-flight work) must still unlink the segment and
        propagate -- close must not hang or leak."""
        from repro.engine import backends as backends_module

        shutdowns = []
        real_stream = backends_module._PoolWorkStream

        class _InterruptedPool:
            def __init__(self, pool):
                self._pool = pool

            def submit(self, *args, **kwargs):
                return self._pool.submit(*args, **kwargs)

            def shutdown(self, wait=True, **kwargs):
                shutdowns.append((wait, kwargs))
                if wait:
                    raise KeyboardInterrupt  # impatient second Ctrl-C
                return self._pool.shutdown(wait=wait, **kwargs)

        def wrapping_stream(*args, **kwargs):
            stream = real_stream(*args, **kwargs)
            stream._pool = _InterruptedPool(stream._pool)
            return stream

        monkeypatch.setattr(backends_module, "_PoolWorkStream",
                            wrapping_stream)
        backend = SharedMemoryBackend(max_workers=1)
        stream = backend.stream(_echo_item)
        stream.submit((0,))
        assert stream.next_outcome()[1] is True
        with pytest.raises(KeyboardInterrupt):
            stream.close()
        # The interrupt path fell back to a non-blocking shutdown ...
        assert [wait for wait, _ in shutdowns] == [True, False]
        assert shutdowns[1][1].get("cancel_futures") is True
        # ... and the autouse fixture asserts the segment was unlinked.

    def test_pool_construction_failure_unlinks_segment(self, monkeypatch):
        """If the worker pool cannot even be built, nobody will call
        close(); the segment must still be unlinked."""
        import concurrent.futures

        def broken_pool(*args, **kwargs):
            raise OSError("no processes for you")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            broken_pool)
        backend = SharedMemoryBackend(max_workers=1)
        with pytest.raises(OSError):
            backend.stream(_echo_item)
        # the autouse fixture asserts /dev/shm is clean afterwards


def _echo_item(item):
    return item


class TestPayloadReport:
    def test_shared_context_shrinks_per_task_payload(self):
        big_context = {"blob": list(range(20000))}
        backend = SharedMemoryBackend(max_workers=2, measure_payload=True)
        run = CampaignEngine(backend=backend).run(
            tasks_of(8), _context_len_worker, context=big_context)
        assert run.results == [i + 20000 for i in range(8)]
        payload = backend.last_payload
        assert payload.n_items == 8
        assert payload.context_bytes > 0  # the one-time shared segment
        # The whole point of the backend: per-task payloads no longer carry
        # the campaign context.
        assert payload.per_task_bytes < 0.1 * payload.context_bytes

    def test_stream_mode_counts_initializer_context(self):
        """The segment is pickled once per pool, not once per worker: its
        bytes are the pickled work function, whatever the worker count."""
        graph = TaskGraph(
            [Task(task_id="root", payload=1)]
            + [Task(task_id=f"c{i}", payload=i, depends_on=("root",))
               for i in range(3)])
        big_context = {"blob": list(range(20000))}
        sizes = []
        for workers in (1, 2):
            backend = SharedMemoryBackend(max_workers=workers,
                                          measure_payload=True)
            run = CampaignEngine(backend=backend).run(
                graph, _context_len_worker, context=big_context)
            assert run.results == [20001, 40001, 40002, 40003]
            sizes.append(backend.last_payload.context_bytes)
        assert sizes[0] == sizes[1] > 0

    def test_measurement_off_by_default(self):
        backend = SharedMemoryBackend(max_workers=2)
        CampaignEngine(backend=backend).run(tasks_of(4), square_worker)
        assert backend.last_payload is None


def _context_len_worker(context, task, rng, inputs):
    return task.payload + len(context["blob"]) + sum(inputs.values())


class TestConfiguration:
    def test_name_and_workers(self):
        backend = SharedMemoryBackend(max_workers=3)
        assert backend.name == "shm"
        assert backend.workers == 3

    def test_invalid_configuration_rejected(self):
        with pytest.raises(EngineError):
            SharedMemoryBackend(max_workers=0)
        with pytest.raises(EngineError):
            SharedMemoryBackend(mp_context="threads")

    def test_empty_graph(self):
        run = CampaignEngine(backend=SharedMemoryBackend(max_workers=2)).run(
            TaskGraph(), square_worker)
        assert run.results == []
