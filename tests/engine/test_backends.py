"""Tests for the execution backends and the campaign engine itself."""

import numpy as np
import pytest

from repro.circuit import EngineError, TaskExecutionError
from repro.engine import (CampaignEngine, ResultCache, ResultCodec,
                          SerialBackend, SharedMemoryBackend, Task, TaskGraph)

from test_telemetry import TERMINAL, collecting_bus


# Module-level workers so the pool backend can pickle them.
def square_worker(context, task, rng, inputs):
    return task.payload ** 2


def draw_worker(context, task, rng, inputs):
    return float(rng.normal())


def failing_worker(context, task, rng, inputs):
    if task.payload == 3:
        raise ValueError("boom on task 3")
    return task.payload


def context_worker(context, task, rng, inputs):
    return context["offset"] + task.payload


def tasks_of(n, **kwargs):
    return TaskGraph([Task(task_id=f"t{i}", payload=i, **kwargs)
                      for i in range(n)])


def terminal_events(sink):
    """(type, task id) of every task's terminal event, in emission order."""
    return [(event.type, event.task_id) for event in sink.events
            if event.type in TERMINAL]


class TestSerialBackend:
    def test_maps_in_order(self):
        run = CampaignEngine(backend=SerialBackend()).run(
            tasks_of(5), square_worker)
        assert run.results == [0, 1, 4, 9, 16]
        assert run.report.backend == "serial"
        assert run.report.n_executed == 5
        assert run.report.n_cache_hits == 0

    def test_context_shared_by_all_tasks(self):
        run = CampaignEngine().run(tasks_of(3), context_worker,
                                   context={"offset": 10})
        assert run.results == [10, 11, 12]

    def test_error_names_the_task(self):
        with pytest.raises(TaskExecutionError, match="t3"):
            CampaignEngine().run(tasks_of(5), failing_worker)

    def test_completion_order_on_bus(self):
        bus, sink = collecting_bus()
        CampaignEngine(telemetry=bus).run(tasks_of(3), square_worker)
        assert sink.events[0].data["n_tasks"] == 3
        assert terminal_events(sink) == [("task_completed", "t0"),
                                         ("task_completed", "t1"),
                                         ("task_completed", "t2")]

    def test_empty_graph(self):
        run = CampaignEngine().run(TaskGraph(), square_worker)
        assert run.results == []
        assert run.report.n_tasks == 0

    def test_result_for(self):
        run = CampaignEngine().run(tasks_of(3), square_worker)
        assert run.result_for("t2") == 4
        with pytest.raises(EngineError):
            run.result_for("missing")


class TestMultiprocessBackend:
    """The process-pool backend (``--backend shm``, alias ``multiprocess``)."""

    def test_matches_serial_results(self):
        serial = CampaignEngine(backend=SerialBackend()).run(
            tasks_of(10), square_worker)
        parallel = CampaignEngine(
            backend=SharedMemoryBackend(max_workers=3)).run(
            tasks_of(10), square_worker)
        assert parallel.results == serial.results
        assert parallel.report.backend == "shm"
        assert parallel.report.workers == 3

    def test_seeded_draws_independent_of_worker_count(self):
        serial = CampaignEngine(seed=42).run(tasks_of(8), draw_worker)
        two = CampaignEngine(
            seed=42, backend=SharedMemoryBackend(max_workers=2)).run(
            tasks_of(8), draw_worker)
        four = CampaignEngine(
            seed=42,
            backend=SharedMemoryBackend(max_workers=4)).run(
            tasks_of(8), draw_worker)
        assert two.results == serial.results
        assert four.results == serial.results

    def test_different_root_seeds_differ(self):
        a = CampaignEngine(seed=1).run(tasks_of(4), draw_worker)
        b = CampaignEngine(seed=2).run(tasks_of(4), draw_worker)
        assert a.results != b.results

    def test_seedsequence_root_is_reusable(self):
        """A caller-owned SeedSequence root must give identical seeds on
        every run (children are derived statelessly, not spawned)."""
        root = np.random.SeedSequence(5)
        engine = CampaignEngine(seed=root)
        first = engine.run(tasks_of(4), draw_worker)
        second = engine.run(tasks_of(4), draw_worker)
        from_int = CampaignEngine(seed=5).run(tasks_of(4), draw_worker)
        assert first.results == second.results == from_int.results

    def test_explicit_task_seed_wins(self):
        explicit = TaskGraph([Task(task_id="t", seed=123)])
        run_a = CampaignEngine(seed=1).run(explicit, draw_worker)
        run_b = CampaignEngine(seed=2).run(
            TaskGraph([Task(task_id="t", seed=123)]), draw_worker)
        assert run_a.results == run_b.results

    def test_worker_error_propagates_across_pool(self):
        with pytest.raises(TaskExecutionError, match="t3"):
            CampaignEngine(backend=SharedMemoryBackend(max_workers=2)).run(
                tasks_of(5), failing_worker)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(EngineError):
            SharedMemoryBackend(max_workers=0)


class TestEngineCaching:
    def test_cache_hit_skips_execution(self, tmp_path):
        cache = ResultCache(str(tmp_path), namespace="test")
        def build():
            return TaskGraph([Task(task_id=f"t{i}", payload=i,
                                   spec={"op": "square", "i": i},
                                   deterministic=True)
                              for i in range(4)])
        cold = CampaignEngine(cache=cache).run(build(), square_worker)
        warm = CampaignEngine(cache=cache).run(build(), square_worker)
        assert warm.results == cold.results == [0, 1, 4, 9]
        assert cold.report.n_cache_hits == 0 and cold.report.n_executed == 4
        assert warm.report.n_cache_hits == 4 and warm.report.n_executed == 0
        assert warm.report.cache_hit_rate == 1.0

    def test_spec_change_invalidates(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        first = CampaignEngine(cache=cache).run(
            [Task(task_id="t", payload=2, spec={"v": 1}, deterministic=True)],
            square_worker)
        second = CampaignEngine(cache=cache).run(
            [Task(task_id="t", payload=2, spec={"v": 2}, deterministic=True)],
            square_worker)
        assert first.report.n_executed == second.report.n_executed == 1

    def test_seeded_tasks_key_on_seed(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = {"op": "draw"}
        a = CampaignEngine(seed=1, cache=cache).run(
            [Task(task_id="t", spec=spec)], draw_worker)
        b = CampaignEngine(seed=2, cache=cache).run(
            [Task(task_id="t", spec=spec)], draw_worker)
        a_again = CampaignEngine(seed=1, cache=cache).run(
            [Task(task_id="t", spec=spec)], draw_worker)
        assert a.results != b.results
        assert a_again.results == a.results
        assert a_again.report.n_cache_hits == 1

    def test_tasks_without_spec_never_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        CampaignEngine(cache=cache).run(tasks_of(3), square_worker)
        assert len(cache) == 0

    def test_codec_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        codec = ResultCodec(encode=lambda v: {"wrapped": v},
                            decode=lambda d: d["wrapped"])
        def build():
            return [Task(task_id="t", payload=3, spec={"op": "square"},
                         deterministic=True)]
        cold = CampaignEngine(cache=cache).run(build(), square_worker,
                                               codec=codec)
        warm = CampaignEngine(cache=cache).run(build(), square_worker,
                                               codec=codec)
        assert cold.results == warm.results == [9]

    def test_completed_results_cached_despite_later_failure(self, tmp_path):
        cache = ResultCache(str(tmp_path), namespace="test")
        graph = TaskGraph([Task(task_id=f"t{i}", payload=i,
                                spec={"op": "fail-at-3", "i": i},
                                deterministic=True)
                           for i in range(4)])
        with pytest.raises(TaskExecutionError):
            CampaignEngine(cache=cache).run(graph, failing_worker)
        # Tasks 0..2 completed before t3 failed: their artifacts must exist.
        assert len(cache) == 3

    def test_cached_tasks_fire_progress(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        def build():
            return [Task(task_id="t", payload=2, spec={"op": "square"},
                         deterministic=True)]
        CampaignEngine(cache=cache).run(build(), square_worker)
        bus, sink = collecting_bus()
        CampaignEngine(cache=cache, telemetry=bus).run(build(), square_worker)
        assert terminal_events(sink) == [("cache_hit", "t")]


class TestReport:
    def test_summary_mentions_backend_and_counts(self):
        run = CampaignEngine().run(tasks_of(3), square_worker)
        summary = run.report.summary()
        assert "3 tasks" in summary
        assert "serial" in summary

    def test_task_durations_cover_every_task(self):
        run = CampaignEngine().run(tasks_of(3), square_worker)
        assert run.report.task_durations.keys() == {"t0", "t1", "t2"}


class TestMpContext:
    """Worker start-method selection on the pool backends."""

    def test_invalid_context_rejected_with_valid_names(self):
        with pytest.raises(EngineError) as excinfo:
            SharedMemoryBackend(max_workers=2, mp_context="threads")
        message = str(excinfo.value)
        assert "threads" in message
        assert "spawn" in message  # every platform offers spawn

    def test_default_context_is_platform_default(self):
        backend = SharedMemoryBackend(max_workers=2)
        assert backend.mp_context is None
        assert backend._pool_context() is None

    def test_spawn_matches_serial_results(self):
        """Seeded draws are identical whatever start method runs them."""
        import multiprocessing
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn start method unavailable")
        graph = tasks_of(6)
        serial = CampaignEngine(backend=SerialBackend(), seed=11).run(
            graph, draw_worker)
        spawned = CampaignEngine(
            backend=SharedMemoryBackend(max_workers=2, mp_context="spawn"),
            seed=11).run(graph, draw_worker)
        assert spawned.results == serial.results
        assert spawned.report.backend == "shm"

    def test_forkserver_stream_mode_matches_serial(self):
        """A dependency graph on a forkserver pool matches serial too."""
        import multiprocessing
        if "forkserver" not in multiprocessing.get_all_start_methods():
            pytest.skip("forkserver start method unavailable")
        graph = TaskGraph(
            [Task(task_id=f"root/{i}") for i in range(4)]
            + [Task(task_id="total",
                    depends_on=tuple(f"root/{i}" for i in range(4)))])

        serial = CampaignEngine(backend=SerialBackend(), seed=3).run(
            graph, _graph_draw_worker)
        pooled = CampaignEngine(
            backend=SharedMemoryBackend(max_workers=2,
                                        mp_context="forkserver"),
            seed=3).run(graph, _graph_draw_worker)
        assert pooled.results == serial.results


def _graph_draw_worker(context, task, rng, inputs):
    base = sum(inputs.values()) if inputs else 0.0
    return base + float(rng.normal())
