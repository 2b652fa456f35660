"""Multi-stage pipelines over the campaign engine's dependency graph.

A :class:`Pipeline` is a thin declarative layer on top of
:class:`~repro.engine.task.TaskGraph`: it groups tasks into named *stages*,
each with its own worker callable, worker context and result codec, and runs
the whole graph through one :class:`~repro.engine.CampaignEngine` invocation.
Dependencies cross stage boundaries freely and there are **no stage
barriers** -- the scheduler dispatches any task the moment its parents
complete, so a fast branch of a later stage can overtake a slow branch of an
earlier one.

The canned ``calibrate-then-campaign`` study
(:data:`~repro.engine.spec.CALIBRATE_THEN_CAMPAIGN`) wires the paper's core
workflow into a single graph::

    calib/0 ... calib/N-1          (defect-free Monte Carlo instances)
            \\   |   /
             windows               (pool residuals, delta = k*sigma + |mean|)
            /   |   \\
    campaign/<block>/<start>-<stop>  (a batch of defect injections + SymBIST
                                      runs against the golden trace)

One root seed drives every random draw (the same draws, in the same order,
as running ``repro-campaign calibrate`` followed by ``repro-campaign
campaign`` with that seed), one :class:`~repro.engine.CampaignReport` spans
all stages, and a warm :class:`~repro.engine.ResultCache` short-circuits
completed parents so their children dispatch immediately.

Stage workers follow the engine's worker contract
``worker(stage_context, task, rng, inputs)`` (see
:meth:`repro.engine.CampaignEngine.run`); they must be module-level
callables, and stage contexts picklable, for pool execution.

Study graphs are compiled from declarative
:class:`~repro.engine.spec.StudySpec` documents through the stage registry
(:mod:`repro.engine.registry`); this module keeps the :class:`Pipeline` API
and the stage registration helpers and workers the registry's expanders
use.  New study shapes are written as specs (see ``docs/studies.md``).
"""

from __future__ import annotations

import hashlib
import uuid
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..circuit.errors import EngineError
from .backends import ExecutionBackend
from .cache import ResultCache, canonical_json, factory_token
from .telemetry import TelemetryBus
from .executor import (CampaignEngine, CampaignReport, EngineRun,
                       IDENTITY_CODEC, ProgressCallback, ResultCodec,
                       STATUS_CACHED, STATUS_EXECUTED)
from .task import Task, TaskGraph

#: Stage worker contract: ``worker(stage_context, task, rng, inputs)``.
StageWorker = Callable[[Any, Task, np.random.Generator, Mapping[str, Any]],
                       Any]


@dataclass(frozen=True)
class PipelineStage:
    """One named stage of a pipeline.

    Attributes
    ----------
    name:
        Stage label; the default ``group`` of its tasks (for per-stage
        timings in the report).
    worker:
        Module-level callable executing the stage's tasks, signature
        ``worker(context, task, rng, inputs)``.
    context:
        Stage-private worker context (picklable for the pool backend).
    codec:
        :class:`~repro.engine.ResultCodec` converting the stage's results
        to/from the JSON stored by the result cache.
    """

    name: str
    worker: StageWorker
    context: Any = None
    codec: ResultCodec = IDENTITY_CODEC


def _dispatch_worker(context: Mapping[str, Any], task: Task,
                     rng: np.random.Generator,
                     inputs: Mapping[str, Any]) -> Any:
    """Engine worker of every pipeline: route the task to its stage worker."""
    worker, stage_context = context["stages"][context["stage_of"][task.task_id]]
    return worker(stage_context, task, rng, inputs)


@dataclass
class PipelineResult:
    """Per-stage view over one engine run of a pipeline graph."""

    run: EngineRun
    stage_names: List[str]
    stage_of: Dict[str, str]

    @property
    def report(self) -> CampaignReport:
        """The single :class:`CampaignReport` spanning every stage."""
        return self.run.report

    @property
    def ok(self) -> bool:
        return self.run.ok

    def result_for(self, task_id: str) -> Any:
        return self.run.result_for(task_id)

    def _stage_task_ids(self, stage: str) -> List[str]:
        if stage not in self.stage_names:
            raise EngineError(f"pipeline has no stage {stage!r}")
        return [tid for tid in self.run.task_ids
                if self.stage_of.get(tid) == stage]

    def stage_results(self, stage: str) -> Dict[str, Any]:
        """Results of one stage's *completed* tasks, in task order."""
        index = {tid: i for i, tid in enumerate(self.run.task_ids)}
        return {tid: self.run.results[index[tid]]
                for tid in self._stage_task_ids(stage)
                if self.run.statuses.get(tid) in (STATUS_EXECUTED,
                                                  STATUS_CACHED)}

    def stage_statuses(self, stage: str) -> Dict[str, str]:
        """Terminal status of every task of one stage, in task order."""
        return {tid: self.run.statuses.get(tid, "unknown")
                for tid in self._stage_task_ids(stage)}


class Pipeline:
    """Declarative multi-stage task graph executed as one engine run.

    Usage::

        pipeline = Pipeline("my-flow")
        pipeline.add_stage("produce", produce_worker, context=...)
        pipeline.add_stage("reduce", reduce_worker)
        for i in range(10):
            pipeline.add_task("produce", Task(task_id=f"p/{i}", payload=i))
        pipeline.add_task("reduce", Task(
            task_id="total", depends_on=tuple(f"p/{i}" for i in range(10))))
        result = pipeline.run(backend=SharedMemoryBackend(max_workers=4))
        total = result.result_for("total")
    """

    def __init__(self, name: str = "pipeline") -> None:
        self.name = name
        self._stages: Dict[str, PipelineStage] = {}
        self._graph = TaskGraph()
        self._stage_of: Dict[str, str] = {}

    # ---------------------------------------------------------------- building
    def add_stage(self, name: str, worker: StageWorker, context: Any = None,
                  codec: Optional[ResultCodec] = None) -> PipelineStage:
        """Declare a stage; must happen before tasks are added to it."""
        if name in self._stages:
            raise EngineError(
                f"pipeline {self.name!r} already has a stage {name!r}")
        stage = PipelineStage(name=name, worker=worker, context=context,
                              codec=codec or IDENTITY_CODEC)
        self._stages[name] = stage
        return stage

    def add_task(self, stage: str, task: Task) -> Task:
        """Add a task to a stage; dependencies may span stages.

        Tasks without an explicit ``group`` inherit the stage name, so the
        run report aggregates timings per stage by default.
        """
        if stage not in self._stages:
            raise EngineError(
                f"pipeline {self.name!r} has no stage {stage!r}; declare it "
                f"with add_stage() first")
        if task.group is None:
            task = replace(task, group=stage)
        self._graph.add(task)
        self._stage_of[task.task_id] = stage
        return task

    # ------------------------------------------------------------------ access
    @property
    def graph(self) -> TaskGraph:
        return self._graph

    def stage_names(self) -> List[str]:
        return list(self._stages)

    def __len__(self) -> int:
        return len(self._graph)

    # --------------------------------------------------------------------- run
    def run(self, backend: Optional[ExecutionBackend] = None,
            cache: Optional[ResultCache] = None,
            seed: Any = 0,
            progress: Optional[ProgressCallback] = None,
            on_failure: str = "raise",
            telemetry: Optional["TelemetryBus"] = None,
            cancel: Optional[Callable[[], bool]] = None) -> PipelineResult:
        """Execute the whole graph through one :class:`CampaignEngine` run.

        ``on_failure="skip"`` returns a result whose
        :meth:`PipelineResult.stage_statuses` mark failed tasks ``failed``
        and their descendants ``skipped``; the default re-raises the engine's
        :class:`~repro.circuit.errors.TaskExecutionError` (which carries the
        completed :class:`~repro.engine.EngineRun` as ``.run``).
        ``telemetry`` is an optional
        :class:`~repro.engine.telemetry.TelemetryBus` receiving the run's
        event stream (stage-tagged, since pipelines pass ``stage_of``).
        ``cancel`` is the engine's cooperative-stop probe (see
        :meth:`~repro.engine.executor.CampaignEngine.run`); a cancelled run
        surfaces through :attr:`EngineRun.cancelled` on the result's
        ``run``.
        """
        if not len(self._graph):
            raise EngineError(f"pipeline {self.name!r} has no tasks")
        engine = CampaignEngine(backend=backend, cache=cache, seed=seed,
                                progress=progress, telemetry=telemetry)
        context = {"stages": {name: (stage.worker, stage.context)
                              for name, stage in self._stages.items()},
                   "stage_of": dict(self._stage_of)}
        stages, stage_of = self._stages, self._stage_of

        def codec_for(task: Task) -> ResultCodec:
            return stages[stage_of[task.task_id]].codec

        run = engine.run(self._graph, _dispatch_worker, context=context,
                         codec=codec_for, on_failure=on_failure,
                         stage_of=dict(self._stage_of), cancel=cancel)
        return PipelineResult(run=run, stage_names=list(self._stages),
                              stage_of=dict(self._stage_of))


# ===================================================================== built-in
# calibrate -> campaign: the paper's two-phase workflow as one graph.

def _calibration_stage_worker(context: Mapping[str, Any], task: Task,
                              rng: np.random.Generator,
                              inputs: Mapping[str, Any]) -> Any:
    """One defect-free Monte Carlo instance (root task, ignores inputs)."""
    from ..core.calibration import _residual_worker
    return _residual_worker(context, task, rng, inputs)


def _pool_residuals(names: Sequence[str], task: Task,
                    inputs: Mapping[str, Any]) -> Dict[str, List[float]]:
    """Assemble per-invariance residual pools from a task's parents.

    Pools are built in ``task.depends_on`` order (== Monte Carlo sample
    order), ``n_cycles`` consecutive residuals per instance -- the invariant
    every float-for-float reproducibility guarantee of the reduction stages
    (windows, yield points) rests on, so there is exactly one copy of it.
    """
    pools: Dict[str, List[float]] = {name: [] for name in names}
    for dep in task.depends_on:
        rows = inputs[dep]
        for name in names:
            pools[name].extend(rows[name])
    return pools


def _windows_stage_worker(context: Mapping[str, Any], task: Task,
                          rng: np.random.Generator,
                          inputs: Mapping[str, Any]) -> Dict[str, Any]:
    """Pool the parents' residuals and derive the comparison windows.

    Pools reproduce :func:`repro.core.calibrate_windows` float-for-float
    (see :func:`_pool_residuals`).  The guard-band multiplier comes from the
    task payload when it carries one (per-block windows tasks of the
    block-study graph) and from the stage context otherwise (the single
    global reduction of the calibrate -> campaign graph).
    """
    from ..core.calibration import windows_from_pools
    names = context["invariance_names"]
    pools = _pool_residuals(names, task, inputs)
    payload = task.payload if isinstance(task.payload, Mapping) else {}
    k = payload.get("k", context.get("k"))
    sigmas, means, deltas = windows_from_pools(
        pools, k, context.get("delta_floors"))
    return {"k": k, "n_samples": len(task.depends_on),
            "sigmas": sigmas, "means": means, "deltas": deltas}


def _register_calibrate_stage(pipeline: Pipeline, adc_factory: Any,
                              stimulus: Any, invariances: Sequence[Any],
                              variation_spec: Any, seed: int,
                              n_monte_carlo: int, stage: str = "calibrate",
                              codec: Optional[ResultCodec] = None,
                              task_prefix: str = "",
                              annotate: Optional[Callable[[Any], Any]] = None
                              ) -> "tuple[List[str], Any, str, bool]":
    """Add the shared defect-free Monte Carlo stage to a pipeline.

    One calib task per sample, with per-sample seeds drawn up front from
    ``default_rng(seed)`` exactly like
    :func:`~repro.core.collect_defect_free_residuals` -- the single source
    of the calibration scaffolding, shared by every built-in graph so their
    calibrate stages can never drift apart (and always replay each other's
    cache artifacts).  ``task_prefix`` namespaces the task ids (and
    ``annotate`` the cache spec) when several variants of one study share a
    pipeline.  Returns ``(calib_ids, calib_spec, seeds_token, cacheable)``.
    """
    from ..core.calibration import RESIDUAL_CODEC, calibration_task_spec

    calib_seeds = [int(s) for s in np.random.default_rng(seed).integers(
        0, 2 ** 63 - 1, size=n_monte_carlo)]
    token = factory_token(adc_factory)
    cacheable = token is not None
    calib_spec = calibration_task_spec(
        token, stimulus, variation_spec,
        [inv.name for inv in invariances]) if cacheable else None
    if calib_spec is not None and annotate is not None:
        calib_spec = annotate(calib_spec)
    pipeline.add_stage(
        stage, _calibration_stage_worker,
        codec=codec if codec is not None else RESIDUAL_CODEC,
        context={"adc_factory": adc_factory, "invariances": invariances,
                 "stimulus": stimulus, "variation_spec": variation_spec})
    calib_ids = []
    for i, calib_seed in enumerate(calib_seeds):
        task = Task(task_id=f"{task_prefix}calib/{i}", payload=i,
                    seed=calib_seed, spec=calib_spec)
        pipeline.add_task(stage, task)
        calib_ids.append(task.task_id)
    seeds_token = hashlib.sha256(
        canonical_json(calib_seeds).encode()).hexdigest()
    return calib_ids, calib_spec, seeds_token, cacheable


def _build_dut(adc_factory: Any) -> "tuple[Any, str, Any]":
    """Instantiate the device under test once per study build.

    Returns ``(adc, fingerprint, universe)`` -- the behavioral ADC with its
    defect list cleared, its cache fingerprint and the defect universe built
    from its hierarchy.  Split out of the campaign-stage registration so
    stages that only need the universe (e.g. per-block windows) can build it
    before the campaign stage is declared.
    """
    from ..defects.simulator import adc_fingerprint
    from ..defects.universe import build_defect_universe

    adc = adc_factory()
    adc.clear_defects()
    hierarchy = adc.build_hierarchy()
    fingerprint = adc_fingerprint(adc, hierarchy)
    universe = build_defect_universe(hierarchy, None)
    return adc, fingerprint, universe


def _register_campaign_stage(pipeline: Pipeline, adc: Any, fingerprint: str,
                             stimulus: Any, mode: Any,
                             stop_on_detection: bool,
                             invariance_names: Sequence[str],
                             stage: str = "campaign",
                             codec: Optional[ResultCodec] = None) -> str:
    """Add the shared defect-campaign stage for a pre-built DUT.

    The single source of the campaign-stage worker context (the behavioral
    ADC and its fingerprint, test spec and run token), shared by every
    campaign-shaped study graph.  The stage worker is the campaign's own
    :func:`repro.defects.simulator._defect_worker`, which takes each batch's
    windows from its windows parent.  Returns the per-process
    ``worker_token``.
    """
    from ..defects.simulator import (MODEL_SECONDS_PER_CYCLE, RECORD_CODEC,
                                     _defect_worker)

    worker_token = uuid.uuid4().hex
    pipeline.add_stage(
        stage, _defect_worker,
        codec=codec if codec is not None else RECORD_CODEC,
        context={"token": worker_token, "adc": adc,
                 "fingerprint": fingerprint,
                 "stimulus": stimulus, "mode": mode,
                 "stop_on_detection": stop_on_detection,
                 "likelihood_model": None,
                 "seconds_per_cycle": MODEL_SECONDS_PER_CYCLE,
                 "invariance_names": list(invariance_names)})
    return worker_token


# ===================================================================== built-in
# yield-loss study: calibrate -> campaign -> yield sweep -> escape analysis.

def _yield_stage_worker(context: Mapping[str, Any], task: Task,
                        rng: np.random.Generator,
                        inputs: Mapping[str, Any]) -> Any:
    """One empirical ``(k, yield)`` point from the pooled parent residuals.

    Pools are assembled in ``task.depends_on`` order (== Monte Carlo sample
    order), and sigma/mean derive through
    :func:`repro.core.calibration.windows_from_pools`, so the point is
    float-for-float what ``calibrate_windows(keep_pools=True)`` followed by
    :func:`repro.analysis.empirical_yield_loss` computes.
    """
    from ..analysis.yield_loss import empirical_yield_loss
    from ..core.calibration import WindowCalibration, windows_from_pools
    names = context["invariance_names"]
    pools = _pool_residuals(names, task, inputs)
    sigmas, means, deltas = windows_from_pools(
        pools, context["k"], context.get("delta_floors"))
    calibration = WindowCalibration(
        k=context["k"], n_samples=len(task.depends_on), sigmas=sigmas,
        means=means, deltas=deltas, residual_pools=pools)
    return empirical_yield_loss(calibration, task.payload,
                                context["n_cycles"])


def _escape_stage_worker(context: Mapping[str, Any], task: Task,
                         rng: np.random.Generator,
                         inputs: Mapping[str, Any]) -> Any:
    """Functional escape analysis over the campaign's undetected defects.

    Parent order is campaign task order, so the undetected-defect list -- and
    therefore the ``max_defects`` subsample drawn by
    :func:`repro.analysis.analyze_escapes` from its deterministic default rng
    -- matches the manual flow over the same records.
    """
    from ..analysis.escape_analysis import analyze_escapes
    from ..defects.sampling import SamplingPlan
    from ..defects.simulator import CampaignResult
    from ..defects.universe import DefectUniverse
    records = [record for dep in task.depends_on for record in inputs[dep]]
    # Only undetected_defects() is consulted; universe/plan are inert here.
    result = CampaignResult(records=records, universe=DefectUniverse([]),
                            plan=SamplingPlan(exhaustive=True),
                            stop_on_detection=context["stop_on_detection"])
    return analyze_escapes(result, adc=context["adc_factory"](),
                           max_defects=context["max_escape_defects"])


# ===================================================================== built-in
# block study: per-block window calibration -> per-block defect campaigns ->
# per-block yield/coverage reduction, as one graph (Table I in one engine run).

def _block_summary_stage_worker(context: Mapping[str, Any], task: Task,
                                rng: np.random.Generator,
                                inputs: Mapping[str, Any]) -> Dict[str, Any]:
    """One block's yield/coverage reduction over its campaign records.

    The first parent is the block's windows task (for the delta table); the
    remaining parents are the block's batch tasks in campaign order.  The
    coverage estimators are the same ones
    :meth:`repro.defects.CampaignResult.block_report` applies, so the
    reduction is bit-identical to assembling a ``CampaignResult`` and asking
    it for the block's Table I row.
    """
    from ..defects.coverage import exhaustive_coverage, lwrs_coverage
    windows = inputs[task.depends_on[0]]
    records = [record for dep in task.depends_on[1:]
               for record in inputs[dep]]
    detected = [r.detected for r in records]
    payload = task.payload
    if payload["exhaustive"]:
        coverage = exhaustive_coverage(detected,
                                       [r.defect for r in records])
    else:
        coverage = lwrs_coverage(
            detected, universe_size=payload["universe_size"],
            universe_likelihood=payload["universe_likelihood"])
    return {"block": payload["block"],
            "n_defects": payload["universe_size"],
            "n_simulated": len(records),
            "n_detected": int(sum(detected)),
            "coverage": coverage.value,
            "ci_half_width": coverage.ci_half_width,
            "modeled_sim_time": sum(r.modeled_sim_time for r in records),
            "wall_time": sum(r.wall_time for r in records),
            "deltas": dict(windows["deltas"])}
