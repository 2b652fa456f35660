"""The stage-tagged task graph of a compiled study, and its stage workers.

A :class:`Pipeline` is the private graph half of a
:class:`~repro.engine.spec.StudyPlan`: a
:class:`~repro.engine.task.TaskGraph` whose tasks are grouped into named
*stages*, each with its own worker callable, worker context and result
codec, run through one :class:`~repro.engine.CampaignEngine` invocation.
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
as ``calibrate_windows(rng=default_rng(seed))`` followed by
``DefectCampaign.run_per_block(seed=seed)``), one
:class:`~repro.engine.CampaignReport` spans all stages, and a warm :class:`~repro.engine.ResultCache` short-circuits
completed parents so their children dispatch immediately.

Stage workers follow the engine's worker contract
``worker(stage_context, task, rng, inputs)`` (see
:meth:`repro.engine.CampaignEngine.run`); they must be module-level
callables, and stage contexts picklable, for pool execution.

Study graphs are compiled from declarative
:class:`~repro.engine.spec.StudySpec` documents by the stage registry's
expanders (:mod:`repro.engine.registry`), which add their stages and tasks
to the plan's :class:`Pipeline`.  New study shapes are written as specs
(see ``docs/studies.md``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

from ..circuit.errors import EngineError
from .backends import ExecutionBackend
from .cache import ResultCache
from .telemetry import TelemetryBus
from .executor import CampaignEngine, EngineRun, IDENTITY_CODEC, ResultCodec
from .task import Task, TaskGraph

#: Stage worker contract: ``worker(stage_context, task, rng, inputs)``.
StageWorker = Callable[[Any, Task, np.random.Generator, Mapping[str, Any]],
                       Any]


def _dispatch_worker(context: Mapping[str, Any], task: Task,
                     rng: np.random.Generator,
                     inputs: Mapping[str, Any]) -> Any:
    """Engine worker of every pipeline: route the task to its stage worker."""
    worker, stage_context = context["stages"][context["stage_of"][task.task_id]]
    return worker(stage_context, task, rng, inputs)


class Pipeline:
    """A task graph of named stages, executed as one engine run."""

    def __init__(self, name: str = "pipeline") -> None:
        self.name = name
        self.graph = TaskGraph()
        #: Stage name -> ``(worker, context, codec)``; the context must be
        #: picklable for the pool backend.
        self._stages: Dict[str, Tuple[StageWorker, Any, ResultCodec]] = {}
        #: Task id -> the name of the stage it belongs to.
        self.stage_of: Dict[str, str] = {}

    def add_stage(self, name: str, worker: StageWorker, context: Any = None,
                  codec: ResultCodec = IDENTITY_CODEC) -> None:
        """Declare a stage; must happen before tasks are added to it."""
        if name in self._stages:
            raise EngineError(
                f"pipeline {self.name!r} already has a stage {name!r}")
        self._stages[name] = (worker, context, codec)

    def add_task(self, stage: str, task: Task) -> None:
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
        self.graph.add(task)
        self.stage_of[task.task_id] = stage

    def stage_names(self) -> List[str]:
        return list(self._stages)

    def __len__(self) -> int:
        return len(self.graph)

    def run(self, backend: Optional[ExecutionBackend] = None,
            cache: Optional[ResultCache] = None,
            on_failure: str = "raise",
            telemetry: Optional[TelemetryBus] = None,
            cancel: Optional[Callable[[], bool]] = None) -> EngineRun:
        """Execute the whole graph through one :class:`CampaignEngine` run.

        ``on_failure="skip"`` marks failed tasks ``failed`` and their
        descendants ``skipped`` in the returned run; the default re-raises
        the engine's :class:`~repro.circuit.errors.TaskExecutionError`
        (which carries the completed :class:`~repro.engine.EngineRun` as
        ``.run``).  ``telemetry`` receives the run's stage-tagged event
        stream; ``cancel`` is the engine's cooperative-stop probe (see
        :meth:`~repro.engine.executor.CampaignEngine.run`), and a cancelled
        run has :attr:`EngineRun.cancelled` set.
        """
        if not len(self.graph):
            raise EngineError(f"pipeline {self.name!r} has no tasks")
        engine = CampaignEngine(backend=backend, cache=cache,
                                telemetry=telemetry)
        stages, stage_of = self._stages, dict(self.stage_of)
        context = {"stages": {name: (worker, stage_context)
                              for name, (worker, stage_context, _)
                              in stages.items()},
                   "stage_of": stage_of}
        return engine.run(self.graph, _dispatch_worker, context=context,
                          codec=lambda task: stages[stage_of[task.task_id]][2],
                          on_failure=on_failure, stage_of=stage_of,
                          cancel=cancel)


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


def _build_dut(adc_factory: Any) -> "tuple[Any, str, Any]":
    """Instantiate the device under test once per compiled study.

    Returns ``(adc, fingerprint, universe)`` -- the behavioral ADC with its
    defect list cleared, its cache fingerprint and the defect universe built
    from its hierarchy.  Kept apart from the campaign expander so stages
    that only need the universe (e.g. per-block windows) can build it
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
    :func:`repro.analysis.empirical_yield_loss` computes.  The point's own
    ``k`` (the task payload) is the only multiplier involved:
    ``empirical_yield_loss`` rebuilds the windows for it.
    """
    from ..analysis.yield_loss import empirical_yield_loss
    from ..core.calibration import WindowCalibration, windows_from_pools
    names = context["invariance_names"]
    pools = _pool_residuals(names, task, inputs)
    k = task.payload
    sigmas, means, deltas = windows_from_pools(pools, k)
    calibration = WindowCalibration(
        k=k, n_samples=len(task.depends_on), sigmas=sigmas,
        means=means, deltas=deltas, residual_pools=pools)
    return empirical_yield_loss(calibration, k)


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
            "deltas": dict(windows["deltas"])}
