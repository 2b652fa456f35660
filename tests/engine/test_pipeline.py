"""Tests for dependency-aware task graphs and the Pipeline API."""

import math

import numpy as np
import pytest

from repro.circuit import EngineError, TaskExecutionError
from repro.engine import (BLOCK_STUDY, CALIBRATE_THEN_CAMPAIGN,
                          CampaignEngine, Pipeline, ResultCache,
                          STATUS_CACHED, STATUS_EXECUTED, STATUS_FAILED,
                          STATUS_SKIPPED, SerialBackend, SharedMemoryBackend,
                          Task, TaskGraph, YIELD_LOSS_STUDY, build_study,
                          run_study)


# ------------------------------------------------------------- graph workers
# Module-level so the pool backend can pickle them.

def _sum_worker(context, task, rng, inputs):
    """Roots return their payload; reducers sum their parents."""
    if not inputs:
        return task.payload
    return sum(inputs.values())


def _noisy_worker(context, task, rng, inputs):
    base = sum(inputs.values()) if inputs else 0.0
    return base + float(rng.normal())


def _failing_worker(context, task, rng, inputs):
    if task.payload == "fail":
        raise ValueError("injected failure")
    return sum(inputs.values()) if inputs else 1


def _recording_worker(context, task, rng, inputs):
    context.append(task.task_id)
    if task.payload == "fail":
        raise ValueError("injected failure")
    return task.task_id


def _flat_worker(context, task, rng, inputs):
    """Edge-free worker: roots receive empty ``inputs``."""
    if task.payload == "fail":
        raise ValueError("injected failure")
    return 1


def _diamond() -> TaskGraph:
    return TaskGraph([
        Task(task_id="a", payload=1),
        Task(task_id="b", payload=10, depends_on=("a",)),
        Task(task_id="c", payload=100, depends_on=("a",)),
        Task(task_id="d", depends_on=("b", "c")),
    ])


class TestTaskEdges:
    def test_depends_on_normalised_to_tuple(self):
        task = Task(task_id="t", depends_on=["a", "b"])
        assert task.depends_on == ("a", "b")

    def test_rejects_self_dependency(self):
        with pytest.raises(EngineError):
            Task(task_id="t", depends_on=("t",))

    def test_rejects_duplicate_dependency(self):
        with pytest.raises(EngineError):
            Task(task_id="t", depends_on=("a", "a"))


class TestTaskGraphEdges:
    def test_parents_must_exist(self):
        graph = TaskGraph()
        with pytest.raises(EngineError):
            graph.add(Task(task_id="child", depends_on=("missing",)))

    def test_edge_accessors(self):
        graph = _diamond()
        assert graph.has_edges
        assert graph.dependencies("d") == ("b", "c")
        assert graph.dependents("a") == ["b", "c"]
        assert graph.roots() == ["a"]
        assert graph.descendants("a") == ["b", "c", "d"]
        assert graph.descendants("b") == ["d"]
        assert graph.topological_order() == ["a", "b", "c", "d"]

    def test_flat_graph_has_no_edges(self):
        graph = TaskGraph([Task(task_id="x"), Task(task_id="y")])
        assert not graph.has_edges
        assert graph.roots() == ["x", "y"]


class TestGraphExecution:
    def test_dependents_receive_parent_results(self):
        run = CampaignEngine().run(_diamond(), _sum_worker)
        assert run.results == [1, 1, 1, 2]  # b = c = a; d = b + c
        assert run.ok
        assert all(status == STATUS_EXECUTED
                   for status in run.statuses.values())

    def test_serial_and_multiprocess_runs_are_identical(self):
        graph = TaskGraph(
            [Task(task_id=f"root/{i}") for i in range(6)]
            + [Task(task_id="total",
                    depends_on=tuple(f"root/{i}" for i in range(6)))])
        serial = CampaignEngine(backend=SerialBackend(), seed=7) \
            .run(graph, _noisy_worker)
        parallel = CampaignEngine(
            backend=SharedMemoryBackend(max_workers=3), seed=7) \
            .run(graph, _noisy_worker)
        assert serial.results == parallel.results

    def test_cached_parent_unblocks_children(self, tmp_path):
        graph = TaskGraph([
            Task(task_id="parent", payload=2, spec={"op": "parent"},
                 deterministic=True),
            Task(task_id="child", spec={"op": "child"}, deterministic=True,
                 depends_on=("parent",)),
        ])
        cache = ResultCache(str(tmp_path))
        CampaignEngine(cache=cache).run(graph, _sum_worker)

        warm = CampaignEngine(cache=cache).run(graph, _sum_worker)
        assert warm.statuses == {"parent": STATUS_CACHED,
                                 "child": STATUS_CACHED}
        assert warm.report.n_cache_hits == 2
        assert warm.results == [2, 2]

        # Same parent, different child spec: the cached parent result must
        # feed the freshly executed child.
        mixed_graph = TaskGraph([
            Task(task_id="parent", payload=2, spec={"op": "parent"},
                 deterministic=True),
            Task(task_id="child", spec={"op": "child-v2"},
                 deterministic=True, depends_on=("parent",)),
        ])
        mixed = CampaignEngine(cache=cache).run(mixed_graph, _sum_worker)
        assert mixed.statuses["parent"] == STATUS_CACHED
        assert mixed.statuses["child"] == STATUS_EXECUTED
        assert mixed.results == [2, 2]

    def test_failure_skips_descendants_and_reports(self):
        graph = TaskGraph([
            Task(task_id="ok-root"),
            Task(task_id="bad-root", payload="fail"),
            Task(task_id="child", depends_on=("bad-root",)),
            Task(task_id="grandchild", depends_on=("child",)),
            Task(task_id="ok-leaf", depends_on=("ok-root",)),
        ])
        run = CampaignEngine().run(graph, _failing_worker,
                                   on_failure="skip")
        assert run.statuses == {
            "ok-root": STATUS_EXECUTED,
            "bad-root": STATUS_FAILED,
            "child": STATUS_SKIPPED,
            "grandchild": STATUS_SKIPPED,
            "ok-leaf": STATUS_EXECUTED,
        }
        assert "injected failure" in run.errors["bad-root"]
        assert run.report.n_failed == 1
        assert run.report.n_skipped == 2
        assert run.skipped_tasks() == ["child", "grandchild"]
        assert not run.ok
        assert "1 failed" in run.report.summary()

    def test_skipped_tasks_never_execute(self):
        calls = []
        graph = TaskGraph([
            Task(task_id="bad", payload="fail"),
            Task(task_id="child", depends_on=("bad",)),
        ])
        run = CampaignEngine().run(graph, _recording_worker, context=calls,
                                   on_failure="skip")
        assert calls == ["bad"]
        assert run.statuses["child"] == STATUS_SKIPPED

    def test_on_failure_raise_carries_the_run(self):
        graph = TaskGraph([
            Task(task_id="bad", payload="fail"),
            Task(task_id="child", depends_on=("bad",)),
        ])
        with pytest.raises(TaskExecutionError) as excinfo:
            CampaignEngine().run(graph, _failing_worker)
        assert "bad" in str(excinfo.value)
        run = excinfo.value.run
        assert run.statuses["child"] == STATUS_SKIPPED

    def test_flat_graph_with_skip_keeps_partial_results(self):
        """Edge-free graphs keep completed results in skip mode."""
        graph = TaskGraph([
            Task(task_id="one"),
            Task(task_id="bad", payload="fail"),
            Task(task_id="two"),
        ])
        run = CampaignEngine().run(graph, _flat_worker, on_failure="skip")
        assert run.results == [1, None, 1]
        assert run.statuses["bad"] == STATUS_FAILED
        assert "injected failure" in run.errors["bad"]

    def test_rejects_unknown_on_failure(self):
        with pytest.raises(EngineError):
            CampaignEngine().run(TaskGraph([Task(task_id="t")]),
                                 _sum_worker, on_failure="ignore")


# ------------------------------------------------------------- Pipeline API

def _double_worker(context, task, rng, inputs):
    return 2 * task.payload


def _reduce_worker(context, task, rng, inputs):
    return sorted(inputs.values())


def _raising_stage_worker(context, task, rng, inputs):
    raise RuntimeError("calibration exploded")


class TestPipeline:
    def _build(self):
        pipeline = Pipeline("test-flow")
        pipeline.add_stage("produce", _double_worker)
        pipeline.add_stage("reduce", _reduce_worker)
        for i in range(3):
            pipeline.add_task("produce", Task(task_id=f"p/{i}", payload=i))
        pipeline.add_task("reduce", Task(
            task_id="total", depends_on=("p/0", "p/1", "p/2")))
        return pipeline

    def test_duplicate_stage_rejected(self):
        pipeline = Pipeline()
        pipeline.add_stage("s", _double_worker)
        with pytest.raises(EngineError):
            pipeline.add_stage("s", _double_worker)

    def test_task_needs_declared_stage(self):
        with pytest.raises(EngineError):
            Pipeline().add_task("nope", Task(task_id="t"))

    def test_empty_pipeline_rejected(self):
        pipeline = Pipeline()
        pipeline.add_stage("s", _double_worker)
        with pytest.raises(EngineError):
            pipeline.run()

    def test_tasks_inherit_stage_as_group(self):
        pipeline = self._build()
        assert pipeline.graph.get("p/0").group == "produce"
        assert pipeline.graph.get("total").group == "reduce"

    def test_run_routes_tasks_to_stage_workers(self):
        result = self._build().run()
        assert result.ok
        assert result.result_for("total") == [0, 2, 4]
        assert result.stage_results("produce") == \
            {"p/0": 0, "p/1": 2, "p/2": 4}
        assert result.report.stage_durations.keys() == {"produce", "reduce"}

    def test_multiprocess_pipeline_matches_serial(self):
        serial = self._build().run()
        parallel = self._build().run(
            backend=SharedMemoryBackend(max_workers=2))
        assert serial.run.results == parallel.run.results

    def test_failed_stage_skips_downstream_stage(self):
        """A failed calibration-style stage marks campaign tasks skipped."""
        pipeline = Pipeline("failing-flow")
        pipeline.add_stage("calibrate", _raising_stage_worker)
        pipeline.add_stage("campaign", _double_worker)
        pipeline.add_task("calibrate", Task(task_id="calib/0"))
        for i in range(3):
            pipeline.add_task("campaign", Task(
                task_id=f"defect/{i}", payload=i, depends_on=("calib/0",)))
        result = pipeline.run(on_failure="skip")
        assert result.stage_statuses("calibrate") == \
            {"calib/0": STATUS_FAILED}
        assert result.stage_statuses("campaign") == \
            {f"defect/{i}": STATUS_SKIPPED for i in range(3)}
        assert result.report.n_failed == 1
        assert result.report.n_skipped == 3
        assert result.stage_results("campaign") == {}
        assert not result.ok


# ------------------------------------------------- calibrate-then-campaign

BLOCK = "vcm_generator"
MC = 3
SEED = 1


def _campaign_spec(overrides=None):
    """The canned calibrate-then-campaign study, shrunk to one block."""
    return CALIBRATE_THEN_CAMPAIGN.override({
        "seed": SEED, "calibrate.n_monte_carlo": MC,
        "campaign.blocks": [BLOCK], **(overrides or {})})


def _manual_flow():
    """The historical two-invocation flow, as `repro-campaign` runs it."""
    from repro.adc import SarAdc
    from repro.core import calibrate_windows
    from repro.defects import DefectCampaign, SamplingPlan

    calibration = calibrate_windows(
        k=5.0, n_monte_carlo=MC, rng=np.random.default_rng(SEED))
    campaign = DefectCampaign(adc=SarAdc(), deltas=calibration.deltas)
    rng = np.random.default_rng(SEED)
    block_universe = campaign.universe.by_block(BLOCK)
    plan = SamplingPlan(exhaustive=len(block_universe) <= 120, n_samples=60)
    return calibration, campaign.run(plan, blocks=[BLOCK], rng=rng)


def _record_digest(result):
    return [(r.defect.defect_id, r.detected, r.detecting_invariance,
             r.detection_cycle, r.cycles_run) for r in result.records]


class TestCalibrateThenCampaign:
    def test_rejects_bad_k_before_running_anything(self):
        from repro.circuit import CalibrationError
        with pytest.raises(CalibrationError):
            build_study(_campaign_spec({"windows.k": -1.0}))

    def test_graph_shape(self):
        plan = build_study(_campaign_spec())
        graph = plan.pipeline.graph
        assert graph.has_edges
        assert graph.dependencies("windows") == tuple(
            f"calib/{i}" for i in range(MC))
        for task_id in plan.block_task_ids[BLOCK]:
            assert graph.dependencies(task_id) == ("windows",)

    def test_bit_identical_to_manual_two_invocation_flow(self):
        calibration, manual = _manual_flow()
        outcome = run_study(_campaign_spec())
        assert outcome.ok
        assert outcome.calibration.deltas == calibration.deltas
        assert outcome.calibration.sigmas == calibration.sigmas
        result = outcome.results[BLOCK]
        assert _record_digest(result) == _record_digest(manual)
        assert result.block_report(BLOCK).coverage == \
            manual.block_report(BLOCK).coverage

    def test_multiprocess_matches_serial(self):
        serial = run_study(_campaign_spec())
        parallel = run_study(_campaign_spec(),
                             backend=SharedMemoryBackend(max_workers=2))
        assert parallel.calibration.deltas == serial.calibration.deltas
        assert _record_digest(parallel.results[BLOCK]) == \
            _record_digest(serial.results[BLOCK])

    def test_warm_cache_skips_completed_parents(self, tmp_path):
        def cache():
            return ResultCache(str(tmp_path), namespace="pipeline")

        cold = run_study(_campaign_spec(), cache=cache())
        assert cold.report.n_cache_hits == 0

        warm = run_study(_campaign_spec(), cache=cache())
        assert warm.report.n_cache_hits == warm.report.n_tasks
        assert _record_digest(warm.results[BLOCK]) == \
            _record_digest(cold.results[BLOCK])

        # Changing the campaign spec invalidates only the campaign stage:
        # cached calibration parents short-circuit and unblock the defect
        # tasks immediately.
        mixed = run_study(
            _campaign_spec({"campaign.stop_on_detection": False}),
            cache=cache())
        assert all(status == STATUS_CACHED for status in
                   mixed.pipeline.stage_statuses("calibrate").values())
        assert mixed.pipeline.stage_statuses("windows") == \
            {"windows": STATUS_CACHED}
        assert all(status == STATUS_EXECUTED for status in
                   mixed.pipeline.stage_statuses("campaign").values())

    def test_single_report_spans_stages(self):
        outcome = run_study(_campaign_spec())
        # MC calibration tasks + 1 windows reduction + 35 defects in
        # batches of the default 32.
        assert outcome.report.n_tasks == \
            MC + 1 + math.ceil(outcome.results[BLOCK].n_simulated / 32)
        assert outcome.report.stage_durations.keys() == \
            {"calibrate", "windows", "campaign"}


# -------------------------------------------------------------- block study

#: vcm_generator exceeds the threshold (LWRS draws exercised);
#: offset_compensation stays exhaustive -- the Table I mix.
STUDY_BLOCKS = ["vcm_generator", "offset_compensation"]
STUDY_SAMPLES = 10
STUDY_THRESHOLD = 20


def _summary_digest(summary):
    """A block summary without its (non-deterministic) wall-clock entry."""
    return {key: value for key, value in summary.items()
            if key != "wall_time"}


def _sequential_per_block_flow(seed=SEED, blocks=STUDY_BLOCKS):
    """calibrate_windows + run_per_block, as a user scripts Table I."""
    from repro.adc import SarAdc
    from repro.core import calibrate_windows
    from repro.defects import DefectCampaign

    calibration = calibrate_windows(
        k=5.0, n_monte_carlo=MC, rng=np.random.default_rng(seed))
    campaign = DefectCampaign(adc=SarAdc(), deltas=calibration.deltas)
    return calibration, campaign.run_per_block(
        n_samples_per_block=STUDY_SAMPLES, seed=seed,
        exhaustive_threshold=STUDY_THRESHOLD, blocks=blocks)


def _block_spec(seed=SEED, blocks=STUDY_BLOCKS, overrides=None):
    """The canned block study, shrunk to the Table I mix above."""
    return BLOCK_STUDY.override({
        "seed": seed, "calibrate.n_monte_carlo": MC,
        "campaign.blocks": list(blocks),
        "campaign.samples": STUDY_SAMPLES,
        "campaign.exhaustive_threshold": STUDY_THRESHOLD,
        **(overrides or {})})


class TestBlockStudy:
    def _study(self, seed=SEED, blocks=STUDY_BLOCKS, overrides=None,
               **run_options):
        return run_study(_block_spec(seed, blocks, overrides), **run_options)

    def test_graph_shape(self):
        plan = build_study(_block_spec())
        graph = plan.pipeline.graph
        assert plan.pipeline.stage_names() == \
            ["calibrate", "windows", "campaign", "summary"]
        calib_ids = tuple(f"calib/{i}" for i in range(MC))
        for block in STUDY_BLOCKS:
            windows_id = plan.windows_task_ids[block]
            assert graph.dependencies(windows_id) == calib_ids
            # Every defect task depends only on its own block's windows, so
            # blocks never serialise behind each other.
            for task_id in plan.block_task_ids[block]:
                assert graph.dependencies(task_id) == (windows_id,)
            assert graph.dependencies(plan.summary_task_ids[block]) == \
                (windows_id,) + tuple(plan.block_task_ids[block])

    def test_rejects_bad_parameters(self):
        from repro.circuit import CalibrationError
        with pytest.raises(EngineError):
            build_study(_block_spec(overrides={"calibrate.n_monte_carlo": 0}))
        with pytest.raises(CalibrationError):
            build_study(_block_spec(overrides={"windows.k": -2.0}))
        with pytest.raises(CalibrationError):
            build_study(_block_spec(overrides={
                "windows.block_k": {"vcm_generator": 0.0}}))

    def test_bit_identical_to_sequential_per_block_flow(self):
        """The acceptance criterion: one graph == calibrate_windows +
        run_per_block under the same root seed."""
        calibration, sequential = _sequential_per_block_flow()
        outcome = self._study()
        assert outcome.ok
        for block in STUDY_BLOCKS:
            assert outcome.calibrations[block].deltas == calibration.deltas
            assert outcome.calibrations[block].sigmas == calibration.sigmas
            assert _record_digest(outcome.results[block]) == \
                _record_digest(sequential[block])
            graph_report = outcome.results[block].block_report(block)
            seq_report = sequential[block].block_report(block)
            assert graph_report.coverage == seq_report.coverage
            # The in-graph summary reduction agrees with both.
            summary = outcome.summaries[block]
            assert summary["coverage"] == seq_report.coverage.value
            assert summary["ci_half_width"] == \
                seq_report.coverage.ci_half_width
            assert summary["n_detected"] == sequential[block].n_detected
            assert summary["n_simulated"] == sequential[block].n_simulated
            assert summary["deltas"] == calibration.deltas

    def test_block_order_invariance(self):
        forward = self._study()
        backward = self._study(blocks=list(reversed(STUDY_BLOCKS)))
        for block in STUDY_BLOCKS:
            assert _record_digest(forward.results[block]) == \
                _record_digest(backward.results[block])
            assert _summary_digest(forward.summaries[block]) == \
                _summary_digest(backward.summaries[block])

    def test_pool_backends_match_serial(self):
        serial = self._study()
        pooled = self._study(backend=SharedMemoryBackend(max_workers=2))
        for block in STUDY_BLOCKS:
            assert pooled.calibrations[block].deltas == \
                serial.calibrations[block].deltas
            assert _record_digest(pooled.results[block]) == \
                _record_digest(serial.results[block])
            assert _summary_digest(pooled.summaries[block]) == \
                _summary_digest(serial.summaries[block])

    def test_single_report_spans_all_stages(self):
        outcome = self._study()
        n_defect_tasks = sum(math.ceil(result.n_simulated / 32)
                             for result in outcome.results.values())
        n_blocks = len(STUDY_BLOCKS)
        assert outcome.report.n_tasks == MC + 2 * n_blocks + n_defect_tasks
        assert outcome.report.stage_counts == {
            "calibrate": MC, "windows": n_blocks,
            "campaign": n_defect_tasks, "summary": n_blocks}
        assert set(outcome.report.stage_durations) == \
            {"calibrate", "windows", "campaign", "summary"}
        assert "campaign" in outcome.report.stage_summary()

    def test_per_block_k_override(self):
        """block_k re-calibrates one block's windows without touching the
        other blocks (per-block window calibration)."""
        uniform = self._study()
        widened = self._study(
            overrides={"windows.block_k": {"vcm_generator": 8.0}})
        assert widened.ok
        assert widened.calibrations["vcm_generator"].k == 8.0
        vcm = widened.calibrations["vcm_generator"].deltas
        base = uniform.calibrations["vcm_generator"].deltas
        # Continuous invariances widen with k; floored ones stay put.
        assert vcm["dac_sum"] > base["dac_sum"]
        assert widened.calibrations["offset_compensation"].deltas == \
            uniform.calibrations["offset_compensation"].deltas
        # Wider windows can only lose detections, never gain them.
        assert widened.results["vcm_generator"].n_detected <= \
            uniform.results["vcm_generator"].n_detected

    def test_warm_cache_replays_every_stage(self, tmp_path):
        def cache():
            return ResultCache(str(tmp_path / "cache"),
                               namespace="calibration")
        cold = self._study(cache=cache())
        assert cold.report.n_cache_hits == 0
        warm = self._study(cache=cache())
        assert warm.report.n_cache_hits == warm.report.n_tasks
        for block in STUDY_BLOCKS:
            assert _record_digest(warm.results[block]) == \
                _record_digest(cold.results[block])
            assert warm.summaries[block] == cold.summaries[block]

    def test_calibrate_artifacts_shared_with_standalone_calibrate(
            self, tmp_path):
        """The calibrate stage replays `repro-campaign calibrate`
        artifacts."""
        from repro.engine.cli import main
        assert main(["calibrate", "--k", "5", "--monte-carlo", str(MC),
                     "--seed", str(SEED), "--quiet",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        outcome = self._study(
            cache=ResultCache(str(tmp_path / "cache"),
                              namespace="calibration"))
        statuses = outcome.pipeline.stage_statuses("calibrate")
        assert all(status == STATUS_CACHED for status in statuses.values())

    def test_failed_calibration_skips_every_block(self):
        """Failing Monte Carlo roots mark every downstream windows /
        campaign / summary task of every block skipped."""
        _FACTORY_CALLS["n"] = 0
        outcome = run_study(_block_spec(blocks=["vcm_generator"]),
                            adc_factory=_exploding_factory,
                            on_failure="skip")
        assert not outcome.ok
        assert outcome.results == {}
        assert outcome.calibrations == {}
        assert outcome.summaries == {}
        assert set(outcome.pipeline.stage_statuses("calibrate").values()) \
            == {STATUS_FAILED}
        assert set(outcome.pipeline.stage_statuses("windows").values()) \
            == {STATUS_SKIPPED}
        assert set(outcome.pipeline.stage_statuses("campaign").values()) \
            == {STATUS_SKIPPED}
        assert set(outcome.pipeline.stage_statuses("summary").values()) \
            == {STATUS_SKIPPED}


_FACTORY_CALLS = {"n": 0}


def _exploding_factory():
    """Builds the IP for the graph construction, then fails in the workers."""
    from repro.adc import SarAdc
    _FACTORY_CALLS["n"] += 1
    if _FACTORY_CALLS["n"] > 1:
        raise RuntimeError("no ADC for you")
    return SarAdc()


# --------------------------------------------------------- yield-loss study
K_VALUES = (3.0, 5.0)
MAX_ESCAPES = 3


def _manual_study():
    """The historical four-step flow the study graph must reproduce."""
    from repro.adc import SarAdc
    from repro.analysis import analyze_escapes, empirical_yield_loss
    from repro.core import calibrate_windows
    from repro.defects import DefectCampaign, SamplingPlan

    calibration = calibrate_windows(
        k=5.0, n_monte_carlo=MC, rng=np.random.default_rng(SEED),
        keep_pools=True)
    campaign = DefectCampaign(adc=SarAdc(), deltas=calibration.deltas)
    result = campaign.run(SamplingPlan(exhaustive=True), blocks=[BLOCK],
                          rng=np.random.default_rng(SEED))
    points = [empirical_yield_loss(calibration, k) for k in K_VALUES]
    escapes = analyze_escapes(result, max_defects=MAX_ESCAPES)
    return calibration, result, points, escapes


def _yield_spec(overrides=None):
    """The canned yield-loss study, shrunk to one block."""
    return YIELD_LOSS_STUDY.override({
        "seed": SEED, "calibrate.n_monte_carlo": MC,
        "campaign.blocks": [BLOCK], "yield.k_values": list(K_VALUES),
        "escape.max_escape_defects": MAX_ESCAPES, **(overrides or {})})


class TestYieldLossStudy:
    def test_graph_shape(self):
        plan = build_study(_yield_spec())
        graph = plan.pipeline.graph
        for i, k in enumerate(K_VALUES):
            assert graph.dependencies(f"yield/{i}/k={k:g}") == tuple(
                f"calib/{j}" for j in range(MC))
        assert graph.dependencies("escape") == tuple(
            plan.block_task_ids[BLOCK])
        assert plan.pipeline.stage_names() == \
            ["calibrate", "windows", "campaign", "yield", "escape"]

    def test_bit_identical_to_manual_flow(self):
        calibration, manual, points, escapes = _manual_study()
        outcome = run_study(_yield_spec())
        assert outcome.ok
        assert outcome.calibration.deltas == calibration.deltas
        assert _record_digest(outcome.results[BLOCK]) == \
            _record_digest(manual)
        assert outcome.yield_points == points
        assert outcome.escapes.n_undetected_total == \
            escapes.n_undetected_total
        assert [(r.defect.defect_id, r.spec_violations, r.gross_failure)
                for r in outcome.escapes.records] == \
            [(r.defect.defect_id, r.spec_violations, r.gross_failure)
             for r in escapes.records]

    def test_shared_memory_backend_matches_serial(self):
        serial = run_study(_yield_spec())
        shm = run_study(_yield_spec(),
                        backend=SharedMemoryBackend(max_workers=2))
        assert shm.yield_points == serial.yield_points
        assert shm.calibration.deltas == serial.calibration.deltas
        assert _record_digest(shm.results[BLOCK]) == \
            _record_digest(serial.results[BLOCK])
        assert [(r.defect.defect_id, r.spec_violations)
                for r in shm.escapes.records] == \
            [(r.defect.defect_id, r.spec_violations)
             for r in serial.escapes.records]
        assert shm.report.backend == "shm"

    def test_warm_cache_replays_all_stages(self, tmp_path):
        def cache():
            return ResultCache(str(tmp_path / "cache"),
                               namespace="calibration")
        cold = run_study(_yield_spec(), cache=cache())
        warm = run_study(_yield_spec(), cache=cache())
        assert warm.report.n_cache_hits == warm.report.n_tasks
        assert warm.yield_points == cold.yield_points
        assert [(r.defect.defect_id, r.spec_violations)
                for r in warm.escapes.records] == \
            [(r.defect.defect_id, r.spec_violations)
             for r in cold.escapes.records]

    def test_rejects_bad_parameters(self):
        with pytest.raises(EngineError):
            build_study(_yield_spec({"yield.k_values": []}))
        with pytest.raises(EngineError):
            build_study(_yield_spec({"yield.n_cycles": 0}))

    def test_n_cycles_comes_from_the_device(self):
        """One Monte Carlo instance contributes one SymBIST run: the
        device's stimulus length, which the paper's device keeps at 32 (so
        its cache keys are unchanged)."""
        for overrides in ({}, {"yield.n_cycles": 32}):
            graph = build_study(_yield_spec(overrides)).pipeline.graph
            assert graph.get("yield/0/k=3").spec["n_cycles"] == 32
        graph = build_study(_yield_spec(
            {"dut.resolution_bits": 12})).pipeline.graph
        assert graph.get("yield/0/k=3").spec["n_cycles"] == 64

    def test_rejects_n_cycles_conflicting_with_the_device(self):
        with pytest.raises(EngineError, match=r"32.*16"):
            build_study(_yield_spec({"dut.resolution_bits": 8,
                                     "yield.n_cycles": 32}))
