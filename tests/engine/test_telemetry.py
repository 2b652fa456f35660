"""Telemetry layer: event streams, spans, sinks and the trace analyzers.

Covers the tentpole guarantees of the observability layer:

* the engine emits a complete, *reconciling* event stream from both the
  flat and the dependency-graph scheduler (counts match the
  :class:`~repro.engine.CampaignReport` exactly, including cached, failed
  and skipped tasks);
* the logical event stream is backend-invariant (serial x multiprocess x
  shm produce the same events modulo timestamps, ordering and worker pids)
  -- checked over randomized workloads drawn from the backend-equivalence
  suite's seeded case generator;
* the JSONL trace is crash-safe to read (a truncated trailing line is
  tolerated, corruption elsewhere is an error);
* the Chrome exporter turns a JSONL trace into structurally valid
  trace-event JSON;
* the progress sink renders and refreshes in place.
"""

import io
import json

import pytest

from repro.circuit.errors import EngineError, TaskExecutionError
from repro.engine import (CampaignEngine, EVENT_TYPES, JsonlTraceSink,
                          ProgressSink, ResultCache, SerialBackend,
                          SharedMemoryBackend, Task, TaskGraph, TelemetryBus,
                          TelemetryEvent, TelemetrySink, chrome_trace,
                          format_summary, read_trace, run_study,
                          summarize_trace)
from repro.engine.spec import BLOCK_STUDY, CALIBRATE_THEN_CAMPAIGN

from test_backend_equivalence import CASES, case_spec

#: The event types that terminate a task (one per task per run).
TERMINAL = ("task_completed", "cache_hit", "task_failed", "task_skipped")


class CollectSink(TelemetrySink):
    def __init__(self):
        self.events = []

    def handle(self, event):
        self.events.append(event)


def collecting_bus():
    sink = CollectSink()
    return TelemetryBus([sink]), sink


def _double(context, task, rng, inputs):
    return task.payload * 2


def _sum_inputs(context, task, rng, inputs):
    if task.payload == "boom":
        raise ValueError("exploding task")
    base = task.payload if isinstance(task.payload, int) else 0
    return base + sum(inputs.values())


def _counts(events):
    return {etype: sum(1 for e in events if e.type == etype)
            for etype in EVENT_TYPES}


def _assert_reconciles(events, report):
    counts = _counts(events)
    assert counts["task_completed"] == report.n_executed
    assert counts["cache_hit"] == report.n_cache_hits
    assert counts["task_failed"] == report.n_failed
    assert counts["task_skipped"] == report.n_skipped
    assert counts["run_started"] == 1
    assert counts["run_finished"] == 1
    finished = [e for e in events if e.type == "run_finished"][0]
    assert finished.data["n_tasks"] == report.n_tasks
    assert finished.data["n_executed"] == report.n_executed
    assert finished.data["n_cache_hits"] == report.n_cache_hits
    assert finished.data["n_failed"] == report.n_failed
    assert finished.data["n_skipped"] == report.n_skipped


class TestEventBus:
    def test_unknown_event_type_is_rejected(self):
        bus = TelemetryBus([])
        with pytest.raises(EngineError, match="unknown telemetry event"):
            bus.emit("task_exploded")

    def test_event_jsonable_round_trip(self):
        event = TelemetryEvent(type="task_completed", t=1.25,
                               task_id="t/0", stage="campaign",
                               group="sc_array", worker=42,
                               data={"duration": 0.5})
        assert TelemetryEvent.from_jsonable(
            json.loads(json.dumps(event.to_jsonable()))) == event

    def test_none_fields_dropped_from_json(self):
        record = TelemetryEvent(type="run_started", t=0.0).to_jsonable()
        assert record == {"type": "run_started", "t": 0.0}

    def test_bus_stamps_monotonic_time(self):
        bus, sink = collecting_bus()
        bus.emit("run_started")
        bus.emit("run_finished")
        first, second = sink.events
        assert second.t >= first.t > 0


class TestFlatRunEvents:
    def test_stream_reconciles_with_report(self):
        bus, sink = collecting_bus()
        run = CampaignEngine(telemetry=bus).run(
            [Task(task_id=f"t/{i}", payload=i) for i in range(6)], _double)
        _assert_reconciles(sink.events, run.report)
        counts = _counts(sink.events)
        assert counts["task_submitted"] == 6
        assert counts["task_started"] == 6

    def test_span_phases_present_and_nonnegative(self):
        bus, sink = collecting_bus()
        CampaignEngine(telemetry=bus).run(
            [Task(task_id=f"t/{i}", payload=i) for i in range(3)], _double)
        completed = [e for e in sink.events if e.type == "task_completed"]
        assert len(completed) == 3
        for event in completed:
            assert event.worker is not None
            for phase in ("queue_wait", "deserialize", "execute", "ship",
                          "worker_seconds", "duration"):
                assert event.data[phase] >= 0.0

    def test_cache_hits_emit_no_submission(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = [Task(task_id=f"t/{i}", payload=i,
                      spec={"op": "double", "i": i}, deterministic=True)
                 for i in range(4)]
        CampaignEngine(cache=cache).run(tasks, _double)
        bus, sink = collecting_bus()
        run = CampaignEngine(cache=cache, telemetry=bus).run(tasks, _double)
        assert run.report.n_cache_hits == 4
        _assert_reconciles(sink.events, run.report)
        assert _counts(sink.events)["task_submitted"] == 0

    def test_no_bus_emits_nothing_and_still_runs(self):
        run = CampaignEngine().run(
            [Task(task_id="t/0", payload=1)], _double)
        assert run.results == [2]


class TestGraphRunEvents:
    def _diamond(self):
        graph = TaskGraph()
        graph.add(Task(task_id="root", payload=1))
        graph.add(Task(task_id="left", payload=10, depends_on=("root",)))
        graph.add(Task(task_id="right", payload=20, depends_on=("root",)))
        graph.add(Task(task_id="join", payload=0,
                       depends_on=("left", "right")))
        return graph

    def test_deps_recorded_and_topologically_ordered(self):
        bus, sink = collecting_bus()
        run = CampaignEngine(telemetry=bus).run(
            self._diamond(), _sum_inputs,
            stage_of={"root": "produce", "left": "map", "right": "map",
                      "join": "reduce"})
        _assert_reconciles(sink.events, run.report)
        submitted = {e.task_id: e.data["deps"] for e in sink.events
                     if e.type == "task_submitted"}
        assert submitted["join"] == ["left", "right"]
        order = [e.task_id for e in sink.events
                 if e.type == "task_submitted"]
        assert order.index("root") < order.index("left")
        assert order.index("left") < order.index("join")

    def test_stage_completed_totals(self):
        bus, sink = collecting_bus()
        CampaignEngine(telemetry=bus).run(
            self._diamond(), _sum_inputs,
            stage_of={"root": "produce", "left": "map", "right": "map",
                      "join": "reduce"})
        stages = {e.stage: e.data for e in sink.events
                  if e.type == "stage_completed"}
        assert set(stages) == {"produce", "map", "reduce"}
        assert stages["map"]["total"] == 2
        assert stages["map"]["executed"] == 2
        assert stages["map"]["failed"] == 0

    def test_failure_and_skip_events_reconcile(self):
        graph = TaskGraph()
        graph.add(Task(task_id="ok", payload=1))
        graph.add(Task(task_id="bad", payload="boom"))
        graph.add(Task(task_id="child", payload=2, depends_on=("bad",)))
        graph.add(Task(task_id="grandchild", payload=3,
                       depends_on=("child",)))
        bus, sink = collecting_bus()
        run = CampaignEngine(telemetry=bus).run(graph, _sum_inputs,
                                                on_failure="skip")
        assert run.report.n_failed == 1 and run.report.n_skipped == 2
        _assert_reconciles(sink.events, run.report)
        failed = [e for e in sink.events if e.type == "task_failed"]
        assert failed[0].task_id == "bad"
        assert "exploding task" in failed[0].data["error"]
        assert {e.task_id for e in sink.events
                if e.type == "task_skipped"} == {"child", "grandchild"}

    def test_trace_of_raising_run_still_reconciles(self):
        graph = TaskGraph()
        graph.add(Task(task_id="bad", payload="boom"))
        graph.add(Task(task_id="child", payload=1, depends_on=("bad",)))
        bus, sink = collecting_bus()
        with pytest.raises(TaskExecutionError) as excinfo:
            CampaignEngine(telemetry=bus).run(graph, _sum_inputs)
        _assert_reconciles(sink.events, excinfo.value.run.report)

    def test_report_stage_failed_skipped_and_summary(self):
        graph = TaskGraph()
        graph.add(Task(task_id="bad", payload="boom"))
        graph.add(Task(task_id="child", payload=1, depends_on=("bad",)))
        run = CampaignEngine().run(
            graph, _sum_inputs, on_failure="skip",
            stage_of={"bad": "produce", "child": "reduce"})
        assert run.report.stage_failed == {"produce": 1}
        assert run.report.stage_skipped == {"reduce": 1}
        line = run.report.stage_summary()
        assert "produce 0 tasks/0.00s (1 failed, 0 skipped)" in line
        assert "reduce 0 tasks/0.00s (0 failed, 1 skipped)" in line


class TestThroughputSatellite:
    def test_tasks_per_second_excludes_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = [Task(task_id=f"t/{i}", payload=i, spec={"i": i},
                      deterministic=True) for i in range(5)]
        CampaignEngine(cache=cache).run(tasks, _double)
        warm = CampaignEngine(cache=cache).run(tasks, _double)
        assert warm.report.n_cache_hits == 5
        assert warm.report.tasks_per_second == 0.0

    def test_executed_run_reports_positive_throughput(self):
        run = CampaignEngine().run(
            [Task(task_id=f"t/{i}", payload=i) for i in range(3)], _double)
        assert run.report.tasks_per_second > 0.0


# One randomized case of each kind from the backend-equivalence generator:
# enough to span every study shape (single-block campaigns, calibration,
# the yield sweep, and both canned study graphs) without re-running all ~23
# cases.
EQUIVALENCE_CASES = [next(c for c in CASES if c["kind"] == kind)
                     for kind in ("campaign", "calibration", "yield",
                                  "pipeline", "block-study")]


def _event_signature(events):
    """The backend-invariant projection of an event stream.

    Timestamps, ordering, worker pids and span durations differ per
    backend; the logical stream -- which tasks were submitted, resolved
    how, in which stage, and the stage/run totals -- must not.
    """
    terminal = sorted((e.type, e.task_id, e.stage, e.group)
                      for e in events if e.type in TERMINAL)
    submitted = sorted((e.task_id, tuple(e.data["deps"]))
                       for e in events if e.type == "task_submitted")
    started = [e for e in events if e.type == "run_started"]
    finished = [e for e in events if e.type == "run_finished"]
    stages = sorted((e.stage, e.data["total"], e.data["executed"],
                     e.data["cached"], e.data["failed"], e.data["skipped"])
                    for e in events if e.type == "stage_completed")
    return {
        "terminal": terminal,
        "submitted": submitted,
        "run_started": [(e.data["n_tasks"], e.data["stages"])
                        for e in started],
        "run_finished": [{key: e.data[key]
                          for key in ("n_tasks", "n_executed",
                                      "n_cache_hits", "n_failed",
                                      "n_skipped")} for e in finished],
        "stages": stages,
    }


def _run_case_events(case, backend):
    """Execute one randomized spec with telemetry; return the signature."""
    bus, sink = collecting_bus()
    run_study(case_spec(case), backend=backend, telemetry=bus)
    return _event_signature(sink.events)


_SERIAL_EVENT_BASELINE = {}


@pytest.mark.parametrize("backend_name", ["multiprocess", "shm"])
@pytest.mark.parametrize("case", EQUIVALENCE_CASES,
                         ids=[c["id"] for c in EQUIVALENCE_CASES])
def test_event_stream_matches_serial(case, backend_name, cli_backend):
    if case["id"] not in _SERIAL_EVENT_BASELINE:
        _SERIAL_EVENT_BASELINE[case["id"]] = _run_case_events(
            case, SerialBackend())
    backend = cli_backend(backend_name)
    assert _run_case_events(case, backend) == \
        _SERIAL_EVENT_BASELINE[case["id"]]


class TestJsonlTrace:
    def _write_trace(self, path):
        bus = TelemetryBus([JsonlTraceSink(path)])
        run = CampaignEngine(telemetry=bus).run(
            [Task(task_id=f"t/{i}", payload=i) for i in range(4)], _double)
        bus.close()
        return run

    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        run = self._write_trace(path)
        events = read_trace(path)
        _assert_reconciles(events, run.report)

    def test_truncated_final_line_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self._write_trace(path)
        whole = read_trace(path)
        text = path.read_text()
        path.write_text(text[:-20])  # cut into the last record
        events = read_trace(path)
        assert [e.type for e in events] == [e.type for e in whole][:-1]

    def test_corruption_elsewhere_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self._write_trace(path)
        lines = path.read_text().splitlines()
        lines[1] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(EngineError, match="line 2"):
            read_trace(path)

    def test_append_mode_accumulates_runs(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self._write_trace(path)
        self._write_trace(path)
        starts = [e for e in read_trace(path) if e.type == "run_started"]
        assert len(starts) == 2

    def test_missing_file_is_a_clean_error(self, tmp_path):
        with pytest.raises(EngineError, match="cannot read trace"):
            read_trace(tmp_path / "nope.jsonl")

    def test_closed_sink_rejects_events(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "run.jsonl")
        sink.close()
        with pytest.raises(EngineError, match="closed"):
            sink.handle(TelemetryEvent(type="run_started", t=0.0))


class TestChromeExport:
    def test_export_is_valid_trace_event_json(self, tmp_path):
        path = tmp_path / "run.jsonl"
        bus = TelemetryBus([JsonlTraceSink(path)])
        run = CampaignEngine(
            backend=SharedMemoryBackend(max_workers=2),
            telemetry=bus).run(
            [Task(task_id=f"t/{i}", payload=i) for i in range(6)], _double)
        bus.close()
        data = json.loads(json.dumps(chrome_trace(read_trace(path))))
        assert data["displayTimeUnit"] == "ms"
        events = data["traceEvents"]
        assert isinstance(events, list) and events
        for entry in events:
            assert entry["ph"] in ("X", "i", "M")
            assert "pid" in entry and "tid" in entry and "name" in entry
        slices = [entry for entry in events if entry["ph"] == "X"]
        assert len(slices) == run.report.n_executed
        for entry in slices:
            assert entry["ts"] >= 0 and entry["dur"] >= 0
        thread_names = [entry for entry in events
                        if entry.get("name") == "thread_name"]
        named_tids = {entry["tid"] for entry in thread_names}
        assert {entry["tid"] for entry in slices} <= named_tids

    def test_instants_for_cache_hits_and_failures(self):
        events = [
            TelemetryEvent(type="run_started", t=0.0, data={"n_tasks": 2}),
            TelemetryEvent(type="cache_hit", t=0.1, task_id="a"),
            TelemetryEvent(type="task_failed", t=0.2, task_id="b",
                           data={"error": "boom"}),
        ]
        rows = chrome_trace(events)["traceEvents"]
        instants = [row for row in rows if row["ph"] == "i"]
        assert any(row["name"] == "cache a" for row in instants)
        assert any(row["name"] == "FAIL b" for row in instants)

    def test_empty_stream(self):
        assert chrome_trace([]) == {"traceEvents": [],
                                    "displayTimeUnit": "ms"}


class TestProgressSink:
    def test_render_line(self):
        line = ProgressSink.render(
            done=3, total=10, executed=2, elapsed=2.0,
            stage_done={"calibrate": 3}, stage_totals={"calibrate": 5})
        assert "3/10 tasks" in line
        assert "calibrate 3/5" in line
        assert "1.0 tasks/s" in line
        # ETA from the overall completion rate (3 done in 2s -> 1.5/s,
        # 7 remaining -> ~4.7s), not the executed-only rate.
        assert "ETA 5s" in line

    def test_warm_cache_eta_uses_completion_rate(self):
        # 8 of 10 tasks resolved from cache, 1 executed: the executed-only
        # rate (0.5/s) would predict ETA 2s for the last task even though
        # tasks are completing at 4.5/s.  The ETA must track completion.
        line = ProgressSink.render(
            done=9, total=10, executed=1, elapsed=2.0,
            stage_done={}, stage_totals={})
        assert "ETA 0s" in line
        assert "ETA 2s" not in line

    def test_refreshes_in_place_and_finishes_line(self):
        stream = io.StringIO()
        bus = TelemetryBus([ProgressSink(stream=stream, min_interval=0.0)])
        CampaignEngine(telemetry=bus).run(
            [Task(task_id=f"t/{i}", payload=i) for i in range(3)], _double)
        bus.close()
        text = stream.getvalue()
        assert text.count("\r") >= 3
        assert text.endswith("3/3 tasks" + text.split("3/3 tasks")[-1])
        assert text.endswith("\n")

    def test_throttles_between_terminal_events(self):
        stream = io.StringIO()
        sink = ProgressSink(stream=stream, min_interval=3600.0)
        bus = TelemetryBus([sink])
        CampaignEngine(telemetry=bus).run(
            [Task(task_id=f"t/{i}", payload=i) for i in range(20)], _double)
        bus.close()
        # run_started + run_finished always render; the 20 per-task events
        # are throttled away.
        assert stream.getvalue().count("\r") == 2


class TestTraceSummary:
    def test_diamond_critical_path(self):
        bus, sink = collecting_bus()
        graph = TaskGraph()
        graph.add(Task(task_id="root", payload=1))
        graph.add(Task(task_id="left", payload=10, depends_on=("root",)))
        graph.add(Task(task_id="right", payload=20, depends_on=("root",)))
        graph.add(Task(task_id="join", payload=0,
                       depends_on=("left", "right")))
        run = CampaignEngine(telemetry=bus).run(graph, _sum_inputs)
        summary = summarize_trace(sink.events)
        assert summary.counts == {
            "n_tasks": 4, "n_executed": 4, "n_cache_hits": 0,
            "n_failed": 0, "n_skipped": 0}
        path = summary.critical_path
        assert path[0] == "root" and path[-1] == "join" and len(path) == 3
        assert summary.critical_path_seconds > 0
        assert run.report.n_executed == 4

    def test_summary_tables_and_phases(self):
        bus, sink = collecting_bus()
        graph = TaskGraph()
        graph.add(Task(task_id="a", payload=1))
        graph.add(Task(task_id="b", payload=2, depends_on=("a",)))
        CampaignEngine(telemetry=bus).run(graph, _sum_inputs,
                                          stage_of={"a": "s1", "b": "s2"})
        summary = summarize_trace(sink.events)
        assert {row.stage for row in summary.stages} == {"s1", "s2"}
        assert summary.worker_rows and summary.worker_rows[0].tasks == 2
        assert set(summary.phase_seconds) == \
            {"queue_wait", "deserialize", "execute", "ship"}
        text = format_summary(summary)
        assert "critical path: 2 tasks" in text
        assert "per-stage:" in text and "per-worker:" in text

    def test_empty_trace_is_an_error(self):
        with pytest.raises(EngineError, match="empty"):
            summarize_trace([])

    def test_recorded_zero_wall_time_survives(self):
        # A sub-resolution fully-cached run legitimately records
        # wall_time 0.0 on run_finished; a falsy check would clobber it
        # with the event-stream extent (here 5.0s).
        events = [
            TelemetryEvent(type="run_started", t=10.0,
                           data={"n_tasks": 1}),
            TelemetryEvent(type="cache_hit", t=12.0, task_id="a"),
            TelemetryEvent(type="run_finished", t=15.0,
                           data={"wall_time": 0.0, "n_tasks": 1,
                                 "n_cache_hits": 1}),
        ]
        summary = summarize_trace(events)
        assert summary.wall_time == 0.0

    def test_interrupted_trace_falls_back_to_stream_extent(self):
        events = [
            TelemetryEvent(type="run_started", t=10.0,
                           data={"n_tasks": 2}),
            TelemetryEvent(type="cache_hit", t=12.5, task_id="a"),
        ]
        assert summarize_trace(events).wall_time == 2.5

    def test_run_started_carries_no_mode(self):
        bus, sink = collecting_bus()
        CampaignEngine(telemetry=bus).run(
            [Task(task_id="t", payload=1)], _double)
        started = [e for e in sink.events if e.type == "run_started"]
        assert "mode" not in started[0].data
        assert "mode" not in format_summary(summarize_trace(sink.events))

    def test_old_trace_with_mode_still_summarizes(self):
        # Traces written before every run went through one scheduler carry
        # run_started.mode ("flat" or "graph"); it is ignored.
        events = [
            TelemetryEvent(type="run_started", t=1.0,
                           data={"n_tasks": 1, "backend": "multiprocess",
                                 "workers": 2, "mode": "flat"}),
            TelemetryEvent(type="cache_hit", t=1.5, task_id="a"),
            TelemetryEvent(type="run_finished", t=2.0,
                           data={"wall_time": 1.0, "n_tasks": 1,
                                 "n_cache_hits": 1}),
        ]
        summary = summarize_trace(events)
        assert (summary.backend, summary.workers, summary.n_cache_hits) == \
            ("multiprocess", 2, 1)
        assert format_summary(summary).startswith(
            "run: 1 tasks via multiprocess (2 workers), 1.00s wall")


class TestBatchedTelemetry:
    """Batch tasks are counted as tasks; defects are counted as items.

    The reconciliation contract of batched campaigns: terminal task events
    count *batches*, their ``items`` payloads sum to the per-defect totals,
    ``stage_summary()``/``trace summarize`` surface those totals, and the
    throughput figures keep counting executed tasks only.
    """

    def _batched_campaign(self, batch_size, cache=None):
        """12 LWRS defects of one block, batched, after a 3-instance
        calibration; returns the outcome and the run's events."""
        spec = CALIBRATE_THEN_CAMPAIGN.override({
            "seed": 5, "calibrate.n_monte_carlo": 3,
            "campaign.blocks": ["vcm_generator"], "campaign.samples": 12,
            "campaign.exhaustive_threshold": 0,
            "campaign.batch_size": batch_size})
        bus, sink = collecting_bus()
        outcome = run_study(spec, telemetry=bus, cache=cache)
        return outcome, sink.events

    @staticmethod
    def _campaign_events(events):
        return [e for e in events if e.stage == "campaign"]

    def test_task_events_count_batches_and_items_count_defects(self):
        outcome, events = self._batched_campaign(batch_size=5)
        completed = [e for e in self._campaign_events(events)
                     if e.type == "task_completed"]
        # 12 defects in batches of 5 -> 3 batch tasks ...
        assert len(completed) == 3
        assert outcome.report.stage_counts["campaign"] == 3
        # ... whose item payloads sum back to the per-defect total.
        assert sum(e.data["items"] for e in completed) == 12
        assert len(outcome.results["vcm_generator"].records) == 12
        _assert_reconciles(events, outcome.report)

    def test_trace_summary_reports_item_totals(self):
        outcome, events = self._batched_campaign(batch_size=5)
        summary = summarize_trace(events)
        campaign = next(row for row in summary.stages
                        if row.stage == "campaign")
        assert campaign.executed == 3
        assert campaign.items == 12
        # 3 calibration instances + 1 windows reduction + 12 defects.
        assert summary.n_items == 16
        assert "[16 items]" in format_summary(summary)

    def test_unbatched_stream_and_summary_are_unchanged(self):
        """batch_size=1 must not leak batching into the telemetry surface:
        no ``items`` payloads, no items clause in the rendered summary."""
        outcome, events = self._batched_campaign(batch_size=1)
        assert all("items" not in e.data for e in events)
        summary = summarize_trace(events)
        assert summary.n_items == summary.counts["n_executed"]
        assert "items" not in format_summary(summary)
        assert "items" not in outcome.report.stage_summary()

    def test_throughput_stays_executed_only(self, tmp_path):
        """Cache-hit batches contribute items to the trace but never to
        ``tasks_per_second``."""
        cache = ResultCache(tmp_path / "cache")
        self._batched_campaign(batch_size=5, cache=cache)
        warm, events = self._batched_campaign(batch_size=5, cache=cache)
        report = warm.report
        assert report.n_cache_hits == report.n_tasks and \
            report.n_executed == 0
        assert report.tasks_per_second == 0.0
        hits = [e for e in self._campaign_events(events)
                if e.type == "cache_hit"]
        assert len(hits) == 3
        assert sum(e.data["items"] for e in hits) == 12
        assert next(row for row in summarize_trace(events).stages
                    if row.stage == "campaign").items == 12

    def test_block_study_stage_summary_reports_defect_totals(self):
        """The study graph's campaign stage counts batches as tasks and
        defects as items, and renders the item total next to the stage."""
        outcome = run_study(BLOCK_STUDY.override({
            "seed": 11, "calibrate.n_monte_carlo": 3,
            "campaign.blocks": ["vcm_generator", "offset_compensation"],
            "campaign.samples": 5, "campaign.batch_size": 4}))
        n_defects = sum(len(result.records)
                        for result in outcome.results.values())
        report = outcome.report
        assert report.stage_items["campaign"] == n_defects
        assert report.stage_counts["campaign"] < n_defects
        assert f"[{n_defects} items]" in report.stage_summary()


class TestStudyTelemetry:
    def test_block_study_trace_reconciles_and_summarizes(self, tmp_path):
        """The acceptance-criterion path: a block-study run with a JSONL
        trace whose counts reconcile exactly with the engine report."""
        path = tmp_path / "study.jsonl"
        bus = TelemetryBus([JsonlTraceSink(path)])
        spec = BLOCK_STUDY.override({
            "calibrate.n_monte_carlo": 3, "seed": 7,
            "campaign.blocks": ["vcm_generator"], "campaign.samples": 5})
        outcome = run_study(spec, backend=SharedMemoryBackend(max_workers=2),
                            telemetry=bus)
        bus.close()
        events = read_trace(path)
        _assert_reconciles(events, outcome.report)
        summary = summarize_trace(events)
        assert summary.backend == "shm" and summary.workers == 2
        assert summary.n_tasks == outcome.report.n_tasks
        stage_names = {row.stage for row in summary.stages}
        assert {"calibrate", "windows", "campaign", "summary"} <= stage_names
        # The study graph's spine must appear in the critical path: a
        # calibration instance before the windows reduction before any
        # campaign/summary descendant.
        assert any(tid.startswith("calib/")
                   for tid in summary.critical_path)
        chrome = chrome_trace(events)
        assert len([row for row in chrome["traceEvents"]
                    if row["ph"] == "X"]) == outcome.report.n_executed
