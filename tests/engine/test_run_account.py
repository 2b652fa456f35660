"""One run account: the engine's report is the fold of its own events.

A live run folds the events it emits into its ``CampaignReport``;
``repro-campaign trace summarize`` folds the same events read back from
the JSONL trace.  The two must be the same object, field for field --
counts, wall time, per-task durations, stage rows (in one order), worker
rows and the critical path -- on every backend, on a warm replay, and on
runs that fail or are cancelled part-way.
"""

import pytest

from repro.circuit.errors import TaskExecutionError
from repro.engine import (BLOCK_STUDY, CampaignEngine, JsonlTraceSink,
                          ResultCache, SharedMemoryBackend, Task, TaskGraph,
                          TelemetryBus, read_trace, run_study,
                          summarize_trace)

#: A block study small enough for a tier-1 test: 3 Monte Carlo instances
#: and 5 sampled defects of one block (7 tasks).
TINY_BLOCK_STUDY = BLOCK_STUDY.override({
    "calibrate.n_monte_carlo": 3, "seed": 7,
    "campaign.blocks": ["vcm_generator"], "campaign.samples": 5})


def _traced(path, run):
    """Call ``run(bus)`` with a bus that writes the JSONL trace *path*."""
    bus = TelemetryBus([JsonlTraceSink(path)])
    try:
        return run(bus)
    finally:
        bus.close()


def _assert_one_account(path, report):
    from_file = summarize_trace(read_trace(path))
    assert from_file == report
    assert [row.stage for row in from_file.stages] == \
        [row.stage for row in report.stages]


def _sum_inputs(context, task, rng, inputs):
    if task.payload == "boom":
        raise ValueError("exploding task")
    return task.payload + sum(inputs.values())


class TestStudyRuns:
    def test_serial(self, tmp_path):
        path = tmp_path / "serial.jsonl"
        outcome = _traced(path, lambda bus: run_study(TINY_BLOCK_STUDY,
                                                      telemetry=bus))
        _assert_one_account(path, outcome.report)
        assert [row.stage for row in outcome.report.stages] == \
            ["calibrate", "windows", "campaign", "summary"]

    def test_shm_two_workers(self, tmp_path):
        path = tmp_path / "shm.jsonl"
        outcome = _traced(path, lambda bus: run_study(
            TINY_BLOCK_STUDY, backend=SharedMemoryBackend(max_workers=2),
            telemetry=bus))
        report = outcome.report
        assert (report.backend, report.workers) == ("shm", 2)
        assert sum(row.tasks for row in report.worker_rows) == \
            report.n_executed
        _assert_one_account(path, report)

    def test_warm_replay(self, tmp_path):
        def cache():
            return ResultCache(str(tmp_path / "cache"),
                               namespace="calibration")

        run_study(TINY_BLOCK_STUDY, cache=cache())
        path = tmp_path / "warm.jsonl"
        warm = _traced(path, lambda bus: run_study(
            TINY_BLOCK_STUDY, cache=cache(), telemetry=bus))
        assert warm.report.n_cache_hits == warm.report.n_tasks
        assert set(warm.report.task_durations.values()) == {0.0}
        _assert_one_account(path, warm.report)


    def test_appended_trace_folds_its_last_run(self, tmp_path):
        path = tmp_path / "twice.jsonl"
        _traced(path, lambda bus: run_study(TINY_BLOCK_STUDY, telemetry=bus))
        second = _traced(path, lambda bus: run_study(TINY_BLOCK_STUDY,
                                                     telemetry=bus))
        _assert_one_account(path, second.report)


class TestEngineGraphs:
    def _graph(self):
        graph = TaskGraph()
        graph.add(Task(task_id="a", payload=1))
        graph.add(Task(task_id="bad", payload="boom"))
        graph.add(Task(task_id="b", payload=2, depends_on=("a",)))
        graph.add(Task(task_id="c", payload=3, depends_on=("bad", "b")))
        graph.add(Task(task_id="d", payload=4, depends_on=("c",)))
        return graph

    STAGE_OF = {"a": "produce", "bad": "produce", "b": "map",
                "c": "reduce", "d": "reduce"}

    def test_failing_task_skipped(self, tmp_path):
        path = tmp_path / "fail.jsonl"
        run = _traced(path, lambda bus: CampaignEngine(telemetry=bus).run(
            self._graph(), _sum_inputs, on_failure="skip",
            stage_of=self.STAGE_OF))
        assert (run.report.n_failed, run.report.n_skipped) == (1, 2)
        assert [(row.stage, row.failed, row.skipped)
                for row in run.report.stages] == \
            [("produce", 1, 0), ("map", 0, 0), ("reduce", 0, 2)]
        _assert_one_account(path, run.report)

    def test_failing_task_raised(self, tmp_path):
        path = tmp_path / "raise.jsonl"
        with pytest.raises(TaskExecutionError) as excinfo:
            _traced(path, lambda bus: CampaignEngine(telemetry=bus).run(
                self._graph(), _sum_inputs, stage_of=self.STAGE_OF))
        _assert_one_account(path, excinfo.value.run.report)

    def test_cancel_probe_fires(self, tmp_path):
        path = tmp_path / "cancel.jsonl"
        chain = TaskGraph()
        for i in range(6):
            chain.add(Task(task_id=f"t/{i}", payload=i,
                           depends_on=(f"t/{i - 1}",) if i else ()))
        polls = iter([False, False])
        run = _traced(path, lambda bus: CampaignEngine(telemetry=bus).run(
            chain, _sum_inputs, stage_of={f"t/{i}": "only" for i in range(6)},
            cancel=lambda: next(polls, True)))
        assert run.cancelled
        assert (run.report.n_executed, run.report.n_skipped) == (2, 4)
        _assert_one_account(path, run.report)
