"""Stage registry of the declarative study layer.

Every simulation stage a study can be composed of -- the defect-free Monte
Carlo calibration, the windows reduction, the defect campaign, the yield
sweep, the escape analysis, the per-block summary reduction -- is registered
here under a stable name with a **typed parameter schema** and an *expander*
that knows how to add the stage's tasks (and their dependency edges) to the
study graph.  :func:`repro.engine.spec.build_study` walks a
:class:`~repro.engine.spec.StudySpec` stage by stage, resolves each entry
against this registry, validates its parameters and calls the expander --
so a study is *data* (a TOML/JSON document) rather than a bespoke builder
function, and a new workload shape is a new spec, not new scaffolding code.

Built-in stages
---------------

==============  ============================================================
``calibrate``   defect-free Monte Carlo instances (one task per sample)
``windows``     comparison-window reduction (global, or one per block with
                ``per_block = true``)
``campaign``    defect injection + SymBIST run (one task per batch of
                sampled same-block defects)
``yield``       empirical yield-loss point per ``k_values`` entry
``escape``      functional escape analysis of undetected defects
``block-summary``  per-block yield/coverage reduction (Table I rows)
==============  ============================================================

Determinism: each expander derives every random draw from the study's root
seed through a stage-specific derivation -- calibration per-sample seeds
from ``default_rng(seed)``, per-block LWRS draws from
:func:`~repro.defects.sampling.block_seed_sequence` ``(seed, block path)``
-- so a compiled graph's results are bit-identical under the same root seed
on any backend, and match :meth:`~repro.defects.DefectCampaign.run_per_block`
after :func:`~repro.core.calibrate_windows` with that seed.

Third-party stages can call :func:`register_stage` with their own
:class:`StageDefinition`; the ``repro-campaign run`` subcommand picks them
up as soon as the defining module is imported.
"""

from __future__ import annotations

import hashlib
import uuid
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Tuple

import numpy as np

from ..circuit.errors import CalibrationError, EngineError
from .cache import canonical_json, factory_token
from .task import Task

# --------------------------------------------------------------------- params

#: Parameter kinds understood by the schema (see :func:`coerce_param`).
PARAM_KINDS = ("int", "float", "bool", "str", "str_list", "float_list",
               "float_map")


@dataclass(frozen=True)
class StageParam:
    """One typed parameter of a registered stage.

    ``kind`` names a JSON/TOML-compatible type from :data:`PARAM_KINDS`;
    ``nullable`` parameters additionally accept ``None`` (JSON ``null``).
    ``default`` is applied when a study names the stage without the
    parameter.
    """

    name: str
    kind: str
    default: Any = None
    nullable: bool = False
    doc: str = ""

    def __post_init__(self) -> None:
        if self.kind not in PARAM_KINDS:
            raise EngineError(
                f"parameter {self.name!r} has unknown kind {self.kind!r}; "
                f"expected one of {', '.join(PARAM_KINDS)}")


def coerce_param(param: StageParam, value: Any, where: str) -> Any:
    """Coerce ``value`` to the parameter's kind, with an actionable error.

    Normalises across the serialisation formats (TOML integers for float
    parameters, JSON lists for tuple-valued parameters) so a spec
    round-trips to an identical :class:`~repro.engine.spec.StudySpec`
    whatever format it travelled through.  Lists normalise to tuples and
    maps to plain dicts.
    """
    def fail(expected: str) -> "EngineError":
        return EngineError(
            f"{where}: parameter {param.name!r} expects {expected}, "
            f"got {value!r} ({type(value).__name__})")

    if value is None:
        if param.nullable:
            return None
        raise fail(f"a non-null {param.kind}")
    if param.kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise fail("an integer")
        return int(value)
    if param.kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise fail("a number")
        return float(value)
    if param.kind == "bool":
        if not isinstance(value, bool):
            raise fail("a boolean")
        return bool(value)
    if param.kind == "str":
        if not isinstance(value, str):
            raise fail("a string")
        return str(value)
    if param.kind == "str_list":
        if isinstance(value, str):
            # CLI convenience: --set campaign.blocks=sc_array,subdac1
            value = [entry for entry in value.split(",") if entry]
        if not isinstance(value, (list, tuple)) or \
                not all(isinstance(entry, str) for entry in value):
            raise fail("a list of strings")
        return tuple(value)
    if param.kind == "float_list":
        if isinstance(value, str):
            try:
                value = [float(entry) for entry in value.split(",") if entry]
            except ValueError:
                raise fail("a list of numbers") from None
        if not isinstance(value, (list, tuple)) or not all(
                isinstance(entry, (int, float))
                and not isinstance(entry, bool) for entry in value):
            raise fail("a list of numbers")
        return tuple(float(entry) for entry in value)
    if param.kind == "float_map":
        if not isinstance(value, Mapping) or not all(
                isinstance(key, str) and isinstance(entry, (int, float))
                and not isinstance(entry, bool)
                for key, entry in value.items()):
            raise fail("a table of name -> number entries")
        return {key: float(entry) for key, entry in value.items()}
    raise fail(param.kind)  # pragma: no cover (kinds checked at definition)


# --------------------------------------------------------------- definitions

#: Expander contract: ``expand(plan, name, params)`` adds the stage (and
#: its tasks, with dependency edges onto previously expanded stages) to
#: ``plan.pipeline`` and records what it produced on ``plan``, the
#: :class:`repro.engine.spec.StudyPlan` being compiled.
StageExpander = Callable[[Any, str, Dict[str, Any]], None]


@dataclass(frozen=True)
class StageDefinition:
    """One registered stage kind: name, parameter schema, expander."""

    name: str
    doc: str
    expand: StageExpander
    params: Tuple[StageParam, ...] = ()

    def param(self, name: str) -> StageParam:
        for param in self.params:
            if param.name == name:
                return param
        known = ", ".join(sorted(p.name for p in self.params)) or "<none>"
        raise EngineError(
            f"stage {self.name!r} has no parameter {name!r}; "
            f"known parameters: {known}")

    def resolve_params(self, study_params: Mapping[str, Any],
                       stage_params: Mapping[str, Any],
                       where: str) -> Dict[str, Any]:
        """Defaults <- study-wide params <- per-stage params, coerced."""
        for name in stage_params:
            self.param(name)  # unknown-parameter rejection
        resolved: Dict[str, Any] = {}
        for param in self.params:
            if param.name in stage_params:
                value = stage_params[param.name]
            elif param.name in study_params:
                value = study_params[param.name]
            else:
                resolved[param.name] = param.default
                continue
            resolved[param.name] = coerce_param(param, value, where)
        return resolved


_REGISTRY: Dict[str, StageDefinition] = {}


def register_stage(definition: StageDefinition) -> StageDefinition:
    """Register a stage kind; rejects duplicate names."""
    if definition.name in _REGISTRY:
        raise EngineError(
            f"a stage named {definition.name!r} is already registered")
    _REGISTRY[definition.name] = definition
    return definition


def stage_definition(name: str) -> StageDefinition:
    """Look a stage kind up, with the available names in the error."""
    try:
        return _REGISTRY[name]
    except KeyError:
        available = ", ".join(sorted(_REGISTRY))
        raise EngineError(
            f"unknown stage {name!r}; registered stages: {available}") \
            from None


def available_stages() -> List[StageDefinition]:
    """Registered stage definitions, in registration order."""
    return list(_REGISTRY.values())


# ---------------------------------------------------------------- expanders

def _expand_calibrate(plan: Any, name: str,
                      params: Dict[str, Any]) -> None:
    """One calib task per Monte Carlo sample, with per-sample seeds drawn up
    front from ``default_rng(seed)`` exactly like
    :func:`~repro.core.collect_defect_free_residuals`."""
    from ..core.calibration import calibration_task_spec
    from .pipeline import _calibration_stage_worker

    n_monte_carlo = params["n_monte_carlo"]
    if n_monte_carlo <= 0:
        raise EngineError(
            f"n_monte_carlo must be positive, got {n_monte_carlo}")
    calib_seeds = [int(s) for s in np.random.default_rng(plan.seed).integers(
        0, 2 ** 63 - 1, size=n_monte_carlo)]
    token = factory_token(plan.adc_factory)
    plan.cacheable = token is not None
    if plan.cacheable:
        plan.calib_spec = plan.annotate(calibration_task_spec(
            token, plan.stimulus, plan.variation_spec,
            plan.invariance_names))
    plan.pipeline.add_stage(
        name, _calibration_stage_worker,
        context={"adc_factory": plan.adc_factory,
                 "invariances": plan.invariances,
                 "stimulus": plan.stimulus,
                 "variation_spec": plan.variation_spec})
    for i, calib_seed in enumerate(calib_seeds):
        task = Task(task_id=f"{plan.task_prefix}calib/{i}", payload=i,
                    seed=calib_seed, spec=plan.calib_spec)
        plan.pipeline.add_task(name, task)
        plan.calibration_task_ids.append(task.task_id)
    plan.seeds_token = hashlib.sha256(
        canonical_json(calib_seeds).encode()).hexdigest()
    plan.n_monte_carlo = n_monte_carlo
    plan.calibrate_stage = name


def _expand_windows(plan: Any, name: str, params: Dict[str, Any]) -> None:
    from .pipeline import _windows_stage_worker

    plan.require(name, "calibrate")
    k = params["k"]
    per_block = params["per_block"]
    delta_floors = params["delta_floors"]
    block_k = params["block_k"] or {}
    if block_k and not per_block:
        raise EngineError(
            f"stage {name!r}: block_k only applies with per_block = true")
    for k_value in [k, *block_k.values()]:
        if k_value <= 0:
            # Same up-front check as calibrate_windows: fail before any
            # Monte Carlo work runs, not inside a windows reduction task.
            raise CalibrationError(f"k must be positive, got {k_value}")
    plan.k = k
    floors = dict(delta_floors) if delta_floors else None
    plan.windows_stage = name
    plan.per_block = per_block

    if not per_block:
        windows_spec = None
        if plan.cacheable:
            windows_spec = plan.annotate({
                "driver": "symbist-pipeline-windows",
                "calibration": plan.calib_spec,
                "k": k,
                "n_monte_carlo": plan.n_monte_carlo,
                "seeds": plan.seeds_token,
                "delta_floors": floors})
        plan.pipeline.add_stage(
            name, _windows_stage_worker,
            context={"invariance_names": plan.invariance_names, "k": k,
                     "delta_floors": floors})
        plan.pipeline.add_task(name, Task(
            task_id=name, spec=windows_spec, deterministic=True,
            depends_on=tuple(plan.calibration_task_ids),
            group=plan.calibrate_stage))
        plan.windows_task_id = name
        plan.windows_specs[None] = windows_spec
        return

    plan.pipeline.add_stage(
        name, _windows_stage_worker,
        context={"invariance_names": plan.invariance_names,
                 "delta_floors": floors})
    for block in plan.block_list():
        k_block = float(block_k.get(block, k))
        windows_spec = None
        if plan.cacheable:
            windows_spec = plan.annotate({
                "driver": "symbist-block-windows",
                "calibration": plan.calib_spec,
                "block": block,
                "k": k_block,
                "n_monte_carlo": plan.n_monte_carlo,
                "seeds": plan.seeds_token,
                "delta_floors": floors})
        windows_id = f"{name}/{block}"
        plan.pipeline.add_task(name, Task(
            task_id=windows_id, payload={"k": k_block}, spec=windows_spec,
            deterministic=True, depends_on=tuple(plan.calibration_task_ids)))
        plan.windows_task_ids[block] = windows_id
        plan.windows_specs[block] = windows_spec


def _expand_campaign(plan: Any, name: str, params: Dict[str, Any]) -> None:
    """Batches of sampled same-block defects; the stage worker is the
    campaign's own :func:`repro.defects.simulator._defect_worker`, which
    takes each batch's windows from its windows parent."""
    from ..defects.simulator import (MODEL_SECONDS_PER_CYCLE, RECORD_CODEC,
                                     _defect_worker, defect_batch_tasks)

    plan.require(name, "windows")
    plan.stop_on_detection = params["stop_on_detection"]
    batch_size = params["batch_size"]
    if batch_size <= 0:
        raise EngineError(
            f"batch_size must be positive, got {batch_size}")
    adc, fingerprint, universe = plan.dut()
    plan.worker_token = uuid.uuid4().hex
    plan.pipeline.add_stage(
        name, _defect_worker,
        codec=RECORD_CODEC,
        context={"token": plan.worker_token, "adc": adc,
                 "fingerprint": fingerprint,
                 "stimulus": plan.stimulus, "mode": plan.mode,
                 "stop_on_detection": plan.stop_on_detection,
                 "seconds_per_cycle": MODEL_SECONDS_PER_CYCLE,
                 "invariance_names": list(plan.invariance_names)})
    plan.campaign_stage = name

    # Per-block LWRS draws derive from the root seed + block path
    # (block_seed_sequence), exactly like DefectCampaign.run_per_block -- so
    # the selection is identical for any block order, block subset or worker
    # count.
    selection = plan.selection()
    for block in plan.block_list():
        sampling, defects = selection[block]
        windows_id = plan.windows_task_ids[block] if plan.per_block \
            else plan.windows_task_id
        key = None
        if plan.cacheable:
            key = plan.annotate({
                "adc": fingerprint,
                "windows": plan.windows_specs[
                    block if plan.per_block else None],
                "mode": plan.mode.value,
                "stop_on_detection": plan.stop_on_detection,
                "seconds_per_cycle": MODEL_SECONDS_PER_CYCLE})
        tasks = defect_batch_tasks(name, block, defects, batch_size, key,
                                   depends_on=(windows_id,))
        for task in tasks:
            plan.pipeline.add_task(name, task)
        plan.block_plans[block] = sampling
        plan.block_universes[block] = universe.by_block(block)
        plan.block_task_ids[block] = [task.task_id for task in tasks]
        plan.block_defect_specs[block] = [task.spec for task in tasks] \
            if plan.cacheable else []


def _expand_block_summary(plan: Any, name: str,
                          params: Dict[str, Any]) -> None:
    from .pipeline import _block_summary_stage_worker

    plan.require(name, "campaign")
    if not plan.per_block:
        raise EngineError(
            f"stage {name!r} reduces per-block windows; set "
            f"per_block = true on the windows stage (or drop the summary)")
    plan.pipeline.add_stage(name, _block_summary_stage_worker)
    plan.summary_stage = name
    for block in plan.block_list():
        block_universe = plan.block_universes[block]
        exhaustive = plan.block_plans[block].exhaustive
        windows_id = plan.windows_task_ids[block]
        summary_spec = None
        if plan.cacheable:
            summary_spec = plan.annotate({
                "driver": "symbist-block-summary",
                "block": block,
                "windows": plan.windows_specs[block],
                "records": hashlib.sha256(canonical_json(
                    plan.block_defect_specs[block]).encode()).hexdigest(),
                "exhaustive": exhaustive,
                "universe_size": len(block_universe),
                "universe_likelihood": block_universe.total_likelihood})
        summary_id = f"{name}/{block}"
        plan.pipeline.add_task(name, Task(
            task_id=summary_id,
            payload={"block": block, "exhaustive": exhaustive,
                     "universe_size": len(block_universe),
                     "universe_likelihood": block_universe.total_likelihood},
            spec=summary_spec, deterministic=True,
            depends_on=(windows_id,) + tuple(plan.block_task_ids[block])))
        plan.summary_task_ids[block] = summary_id


def _expand_yield(plan: Any, name: str, params: Dict[str, Any]) -> None:
    from ..analysis.yield_loss import POINT_CODEC
    from .pipeline import _yield_stage_worker

    plan.require(name, "calibrate")
    k_values = params["k_values"]
    if not k_values:
        raise EngineError("k_values must name at least one k")
    plan.pipeline.add_stage(
        name, _yield_stage_worker,
        codec=POINT_CODEC,
        context={"invariance_names": plan.invariance_names})
    plan.yield_stage = name
    plan.k_values = [float(value) for value in k_values]
    for index, k_value in enumerate(k_values):
        spec = None
        if plan.cacheable:
            # Everything an empirical point depends on: the residual pools
            # (determined by the calibration spec + per-sample seeds) and
            # the point's own parameters.  n_cycles is the device's stimulus
            # length (each Monte Carlo instance is one SymBIST run); it
            # stays in the key so existing artifacts keep replaying.
            spec = plan.annotate(
                {"driver": "symbist-study-yield", "k": float(k_value),
                 "n_cycles": plan.stimulus.n_cycles,
                 "calibration": plan.calib_spec,
                 "seeds": plan.seeds_token})
        task = Task(task_id=f"{name}/{index}/k={k_value:g}",
                    payload=float(k_value), spec=spec, deterministic=True,
                    depends_on=tuple(plan.calibration_task_ids))
        plan.pipeline.add_task(name, task)
        plan.yield_task_ids.append(task.task_id)


def _expand_escape(plan: Any, name: str, params: Dict[str, Any]) -> None:
    from ..analysis.escape_analysis import ESCAPE_CODEC
    from .pipeline import _escape_stage_worker

    plan.require(name, "campaign")
    max_defects = params["max_escape_defects"]
    campaign_ids = [tid for block in plan.block_list()
                    for tid in plan.block_task_ids[block]]
    escape_spec = None
    if plan.cacheable:
        defect_specs = [plan.pipeline.graph.get(tid).spec
                        for tid in campaign_ids]
        escape_spec = plan.annotate({
            "driver": "symbist-study-escape",
            "records": hashlib.sha256(
                canonical_json(defect_specs).encode()).hexdigest(),
            "max_defects": max_defects,
            "factory": factory_token(plan.adc_factory)})
    plan.pipeline.add_stage(
        name, _escape_stage_worker,
        codec=ESCAPE_CODEC,
        context={"adc_factory": plan.adc_factory,
                 "stop_on_detection": plan.stop_on_detection,
                 "max_escape_defects": max_defects})
    plan.escape_stage = name
    plan.escape_task_id = name
    plan.pipeline.add_task(name, Task(
        task_id=name, spec=escape_spec, deterministic=True,
        depends_on=tuple(campaign_ids)))


# ------------------------------------------------------------ registrations

register_stage(StageDefinition(
    name="calibrate",
    doc="defect-free Monte Carlo instances (one task per sample); "
        "per-sample seeds derive from default_rng(root seed)",
    expand=_expand_calibrate,
    params=(
        StageParam("n_monte_carlo", "int", default=50,
                   doc="Monte Carlo samples of the window calibration"),
    )))

register_stage(StageDefinition(
    name="windows",
    doc="comparison-window reduction over the pooled calibration "
        "residuals (delta = k*sigma + |mean|); one global reduction, or "
        "one per block with per_block",
    expand=_expand_windows,
    params=(
        StageParam("k", "float", default=5.0,
                   doc="window guard-band multiplier"),
        StageParam("per_block", "bool", default=False,
                   doc="calibrate one window set per block instead of one "
                       "global set"),
        StageParam("delta_floors", "float_map", default=None, nullable=True,
                   doc="per-invariance lower bounds on the window "
                       "half-widths"),
        StageParam("block_k", "float_map", default=None, nullable=True,
                   doc="per-block guard-band overrides (per_block only); "
                       "blocks not named keep k"),
    )))

register_stage(StageDefinition(
    name="campaign",
    doc="defect injection + SymBIST run per sampled defect, in same-block "
        "batches against a golden trace; per-block LWRS draws derive from "
        "block_seed_sequence(root seed, block path)",
    expand=_expand_campaign,
    params=(
        StageParam("samples", "int", default=60,
                   doc="LWRS budget for blocks too large to exhaust"),
        StageParam("exhaustive", "bool", default=False,
                   doc="simulate every defect of every block"),
        StageParam("exhaustive_threshold", "int", default=120,
                   doc="blocks with at most this many defects are "
                       "simulated exhaustively"),
        StageParam("stop_on_detection", "bool", default=True,
                   doc="stop each defect's test at its first detection"),
        StageParam("blocks", "str_list", default=None, nullable=True,
                   doc="restrict the campaign to these block paths "
                       "(default: every block)"),
        StageParam("batch_size", "int", default=32,
                   doc="defects evaluated per task as one vectorized sweep "
                       "against a cached defect-free golden trace; results "
                       "are bit-identical for every batch size.  The "
                       "default is a constant, never derived from the "
                       "worker count, because the batch layout is part of "
                       "every task id and cache key"),
    )))

register_stage(StageDefinition(
    name="yield",
    doc="one empirical yield-loss point per k_values entry, fed directly "
        "by the calibration samples",
    expand=_expand_yield,
    params=(
        StageParam("k_values", "float_list",
                   default=(2.0, 3.0, 4.0, 5.0, 6.0),
                   doc="window multipliers of the yield-loss sweep"),
    )))

register_stage(StageDefinition(
    name="escape",
    doc="functional escape analysis over the campaign's undetected defects",
    expand=_expand_escape,
    params=(
        StageParam("max_escape_defects", "int", default=20, nullable=True,
                   doc="functional-test budget: analyse at most this many "
                       "undetected defects (null = all)"),
    )))

register_stage(StageDefinition(
    name="block-summary",
    doc="per-block yield/coverage reduction over the campaign records "
        "(the Table I rows), one task per block",
    expand=_expand_block_summary,
    params=()))
