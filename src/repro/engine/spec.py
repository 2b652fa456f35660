"""Declarative studies: ``StudySpec`` documents compiled into task graphs.

A *study* -- the paper's window calibration, the Table I per-block sweep,
the yield-loss-versus-k experiment -- is a composition of simulation stages
into one dependency-aware task graph.  Historically each composition was a
bespoke ~300-line builder; this module makes them **data** instead:

* :class:`StageSpec` names one stage instance from the
  :mod:`~repro.engine.registry` (with parameter overrides and optional
  explicit ``after`` edges);
* :class:`StudySpec` is an ordered list of stage specs plus the root seed
  and study-wide shared parameters, round-trippable to/from TOML and JSON;
* :func:`build_study` compiles a spec against the stage registry into a
  :class:`StudyPlan` -- one :class:`~repro.engine.pipeline.Pipeline` whose
  results are bit-identical under the same root seed on any backend;
* :meth:`StudyPlan.run` executes the graph and assembles a
  :class:`StudyOutcome` with named-stage accessors (``calibration``,
  ``results``, ``summaries``, ``yield_points``, ``escapes``).

The three canned studies -- :data:`CALIBRATE_THEN_CAMPAIGN`,
:data:`BLOCK_STUDY` and :data:`YIELD_LOSS_STUDY` -- are ``StudySpec``
constants; :meth:`StudySpec.override` customises them from Python
(``BLOCK_STUDY.override({"campaign.samples": 40})``) and
``repro-campaign run STUDY.toml`` (with ``--set stage.param=value``
overrides) runs any spec from the shell; see ``docs/studies.md`` and
``examples/studies/`` for the format.

A minimal study document::

    name = "calibrate-then-campaign"
    seed = 1

    [params]            # study-wide: applies to every stage declaring it
    k = 5.0

    [[stages]]
    stage = "calibrate"
    [stages.params]
    n_monte_carlo = 50

    [[stages]]
    stage = "windows"
    after = ["calibrate"]

    [[stages]]
    stage = "campaign"
    after = ["windows"]
    [stages.params]
    samples = 60
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..circuit.errors import DutSpecError, EngineError
from .backends import ExecutionBackend
from .cache import ResultCache
from .executor import CampaignReport
from .pipeline import Pipeline, PipelineResult
from .registry import coerce_param, stage_definition
from .telemetry import TelemetryBus

__all__ = [
    "BLOCK_STUDY", "CALIBRATE_THEN_CAMPAIGN", "CANNED_STUDIES", "StageSpec",
    "StudyBuild", "StudyOutcome", "StudyPlan", "StudySpec", "VariantSpec",
    "YIELD_LOSS_STUDY", "build_study", "load_study", "run_study",
]

#: Variant labels become task-id prefixes and warehouse column values, so
#: they are restricted to filesystem/identifier-safe characters.
_VARIANT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


# ===================================================================== model

@dataclass(frozen=True)
class StageSpec:
    """One stage instance of a study.

    ``stage`` is the registry kind; ``name`` the instance label (defaults
    to the kind) used for pipeline stage names, task-id prefixes and
    ``--set name.param=value`` overrides; ``after`` optionally names
    earlier instances this stage consumes (purely declarative -- the
    expander derives the actual task-level edges -- but validated, so a
    spec documents its own data flow).
    """

    stage: str
    name: Optional[str] = None
    params: Mapping[str, Any] = field(default_factory=dict)
    after: Tuple[str, ...] = ()

    @property
    def label(self) -> str:
        return self.name if self.name is not None else self.stage


@dataclass(frozen=True)
class VariantSpec:
    """One DUT variant of a multi-variant study.

    ``name`` labels the variant (task-id prefix, JSON/warehouse ``variant``
    column); ``dut`` holds the variant's overrides, merged over the study's
    ``[dut]`` table at compile time.
    """

    name: str
    dut: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class StudySpec:
    """A declarative study: stages + root seed + shared parameters.

    ``params`` holds study-wide values applied to every stage whose schema
    declares the parameter (e.g. one ``k`` feeding both the ``windows`` and
    ``yield`` stages); per-stage ``params`` override them.  ``dut``
    describes the device under test declaratively (a
    :class:`~repro.dut.DutSpec` payload; empty = the paper's device) and
    ``variants`` fans the whole stage list out over several DUT overlays in
    one task graph.  Specs are plain data: equal specs compile to identical
    graphs, and :meth:`to_toml`/:meth:`from_toml`/:meth:`to_jsonable`/
    :meth:`from_jsonable` round-trip them losslessly (parameters equal to
    their registry defaults are normalised away on load).
    """

    name: str
    seed: int = 1
    params: Mapping[str, Any] = field(default_factory=dict)
    stages: Tuple[StageSpec, ...] = ()
    dut: Mapping[str, Any] = field(default_factory=dict)
    variants: Tuple[VariantSpec, ...] = ()

    # ------------------------------------------------------------ validation
    def validated(self) -> "StudySpec":
        """Normalise and validate against the registry; raise on problems.

        Checks stage kinds, instance-name uniqueness, ``after`` references,
        parameter names and types; coerces every parameter to its declared
        kind and drops entries equal to their defaults, so two specs that
        mean the same thing compare equal whatever format they came from.
        """
        if not self.name:
            raise EngineError("a study needs a non-empty name")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise EngineError(
                f"study {self.name!r}: seed must be an integer, "
                f"got {self.seed!r}")
        if not self.stages:
            raise EngineError(f"study {self.name!r} declares no stages")

        seen: Dict[str, str] = {}
        stages: List[StageSpec] = []
        for entry in self.stages:
            definition = stage_definition(entry.stage)
            label = entry.label
            if label in seen:
                raise EngineError(
                    f"study {self.name!r} declares two stages named "
                    f"{label!r}; give one of them a distinct name = ...")
            for upstream in entry.after:
                if upstream not in seen:
                    raise EngineError(
                        f"study {self.name!r}: stage {label!r} comes after "
                        f"{upstream!r}, which is not an earlier stage of "
                        f"this study")
            where = f"study {self.name!r}, stage {label!r}"
            params = {}
            for key, value in entry.params.items():
                param = definition.param(key)
                coerced = coerce_param(param, value, where)
                # A stage value equal to the registry default is redundant
                # -- unless a study-wide value for the same key exists, in
                # which case the stage entry is a deliberate pin that must
                # survive normalisation to keep overriding it.
                if coerced != param.default or key in self.params:
                    params[key] = coerced
            name = None if entry.name == entry.stage else entry.name
            stages.append(StageSpec(stage=entry.stage, name=name,
                                    params=params,
                                    after=tuple(entry.after)))
            seen[label] = entry.stage

        # Study-wide params must be meaningful to at least one stage.
        params = {}
        for key, value in self.params.items():
            declaring = [stage_definition(entry.stage).param(key)
                         for entry in stages
                         if any(p.name == key for p in
                                stage_definition(entry.stage).params)]
            if not declaring:
                names = sorted({p.name for entry in stages for p in
                                stage_definition(entry.stage).params})
                raise EngineError(
                    f"study {self.name!r}: no stage of this study has a "
                    f"parameter {key!r}; known parameters: "
                    f"{', '.join(names)}")
            coerced = coerce_param(declaring[0], value,
                                   f"study {self.name!r}")
            # A study-wide value equal to every declaring stage's default
            # is redundant; drop it so equivalent specs compare equal.
            if any(coerced != param.default for param in declaring):
                params[key] = coerced

        dut, variants = self._validated_dut()
        return StudySpec(name=self.name, seed=int(self.seed), params=params,
                         stages=tuple(stages), dut=dut, variants=variants)

    def _validated_dut(self) -> Tuple[Dict[str, Any], Tuple[VariantSpec, ...]]:
        """Validate/normalise the ``[dut]`` table and ``[[variants]]`` list.

        The base payload is normalised through a ``DutSpec`` round-trip
        (spelled-out defaults drop away, so equivalent specs compare
        equal); each variant overlay is checked to merge into a valid
        spec.  Raises :class:`EngineError` with the underlying
        :class:`~repro.circuit.errors.DutSpecError` message on problems.
        """
        from ..dut import DutSpec
        try:
            base = DutSpec.from_jsonable(self.dut)
        except DutSpecError as exc:
            raise EngineError(f"study {self.name!r}, [dut]: {exc}") from exc
        seen = set()
        variants = []
        for position, variant in enumerate(self.variants):
            name = variant.name
            if not isinstance(name, str) or not _VARIANT_NAME.match(name):
                raise EngineError(
                    f"study {self.name!r}: variants[{position}] needs a "
                    f"name of letters, digits, '.', '_' or '-' (it becomes "
                    f"a task-id prefix), got {name!r}")
            if name in seen:
                raise EngineError(
                    f"study {self.name!r} declares two variants named "
                    f"{name!r}; variant names must be unique")
            seen.add(name)
            if not isinstance(variant.dut, Mapping):
                raise EngineError(
                    f"study {self.name!r}: variants[{position}].dut must "
                    f"be a table of DUT overrides")
            try:
                base.merged(variant.dut)
            except DutSpecError as exc:
                raise EngineError(
                    f"study {self.name!r}, variant {name!r}: {exc}") from exc
            variants.append(VariantSpec(name=name, dut=dict(variant.dut)))
        return base.to_jsonable(), tuple(variants)

    # ------------------------------------------------------------- overrides
    def override(self, assignments: Mapping[str, Any]) -> "StudySpec":
        """A new spec with dotted-path overrides applied.

        Keys: ``seed`` (root seed), ``<param>`` (study-wide shared
        parameter), ``<stage>.<param>`` (one stage instance's parameter,
        by instance label) or ``dut.<field>`` (one DUT field, e.g.
        ``dut.resolution_bits=8``; nested paths like
        ``dut.block_params.bandgap.vbg`` reach into sub-tables).  A value
        of ``None`` removes the entry for non-nullable parameters (falling
        back to the registry default) and is stored as an explicit null
        for nullable ones.
        """
        spec = self.validated()
        seed = spec.seed
        params = dict(spec.params)
        dut: Dict[str, Any] = {key: dict(value)
                               if isinstance(value, Mapping) else value
                               for key, value in spec.dut.items()}
        stage_params: Dict[str, Dict[str, Any]] = {
            entry.label: dict(entry.params) for entry in spec.stages}
        labels = {entry.label: entry.stage for entry in spec.stages}

        for key, value in assignments.items():
            if key == "seed":
                if isinstance(value, bool) or not isinstance(value, int):
                    raise EngineError(
                        f"--set seed expects an integer, got {value!r}")
                seed = value
                continue
            if key == "dut" or key.startswith("dut."):
                if key == "dut":
                    raise EngineError(
                        "--set dut expects a field path, e.g. "
                        "dut.resolution_bits=8")
                _assign_dut_path(dut, key[len("dut."):].split("."), value)
                continue
            if "." in key:
                label, param_name = key.split(".", 1)
                if label not in labels:
                    known = ", ".join(sorted(labels)) or "<none>"
                    raise EngineError(
                        f"study {spec.name!r} has no stage named {label!r} "
                        f"(known stages: {known}); use <stage>.<param>")
                param = stage_definition(labels[label]).param(param_name)
                if value is None and not param.nullable:
                    stage_params[label].pop(param_name, None)
                else:
                    stage_params[label][param_name] = value
                continue
            # Study-wide shared parameter; validated() checks it is known.
            if value is None:
                params.pop(key, None)
            else:
                params[key] = value

        stages = tuple(replace(entry, params=stage_params[entry.label])
                       for entry in spec.stages)
        return StudySpec(name=spec.name, seed=seed, params=params,
                         stages=stages, dut=dut,
                         variants=spec.variants).validated()

    # ---------------------------------------------------------------- JSON
    def to_jsonable(self) -> Dict[str, Any]:
        """A JSON-ready dict (lists for tuples, minimal keys)."""
        spec = self.validated()
        stages = []
        for entry in spec.stages:
            stage: Dict[str, Any] = {"stage": entry.stage}
            if entry.name is not None and entry.name != entry.stage:
                stage["name"] = entry.name
            if entry.after:
                stage["after"] = list(entry.after)
            if entry.params:
                stage["params"] = _jsonable_params(entry.params)
            stages.append(stage)
        payload: Dict[str, Any] = {"name": spec.name, "seed": spec.seed}
        if spec.dut:
            payload["dut"] = {key: dict(value)
                              if isinstance(value, Mapping) else value
                              for key, value in spec.dut.items()}
        if spec.params:
            payload["params"] = _jsonable_params(spec.params)
        payload["stages"] = stages
        if spec.variants:
            payload["variants"] = [
                {"name": variant.name, **({"dut": dict(variant.dut)}
                                          if variant.dut else {})}
                for variant in spec.variants]
        return payload

    @classmethod
    def from_jsonable(cls, payload: Any, source: str = "study") -> "StudySpec":
        """Parse (and validate) a spec from JSON/TOML-shaped data."""
        if not isinstance(payload, Mapping):
            raise EngineError(
                f"{source}: expected a table/object at the top level, "
                f"got {type(payload).__name__}")
        known = {"name", "seed", "params", "stages", "dut", "variants"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise EngineError(
                f"{source}: unknown top-level keys {unknown}; expected "
                f"{sorted(known)}")
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise EngineError(f"{source}: a study needs a string 'name'")
        raw_stages = payload.get("stages")
        if not isinstance(raw_stages, Sequence) or isinstance(raw_stages, str):
            raise EngineError(
                f"{source}: 'stages' must be an array of stage tables "
                f"([[stages]] in TOML)")
        stages = []
        for position, raw in enumerate(raw_stages):
            if not isinstance(raw, Mapping):
                raise EngineError(
                    f"{source}: stages[{position}] is not a table/object")
            stage_known = {"stage", "name", "after", "params"}
            stage_unknown = sorted(set(raw) - stage_known)
            if stage_unknown:
                raise EngineError(
                    f"{source}: stages[{position}] has unknown keys "
                    f"{stage_unknown}; expected {sorted(stage_known)}")
            kind = raw.get("stage")
            if not isinstance(kind, str) or not kind:
                raise EngineError(
                    f"{source}: stages[{position}] needs a string 'stage' "
                    f"naming a registered stage")
            after = raw.get("after", ())
            if isinstance(after, str) or not isinstance(after, Sequence):
                raise EngineError(
                    f"{source}: stages[{position}].after must be a list of "
                    f"stage names")
            params = raw.get("params", {})
            if not isinstance(params, Mapping):
                raise EngineError(
                    f"{source}: stages[{position}].params must be a table")
            stages.append(StageSpec(stage=kind, name=raw.get("name"),
                                    params=dict(params),
                                    after=tuple(after)))
        params = payload.get("params", {})
        if not isinstance(params, Mapping):
            raise EngineError(f"{source}: 'params' must be a table")
        dut = payload.get("dut", {})
        if not isinstance(dut, Mapping):
            raise EngineError(
                f"{source}: 'dut' must be a table of DutSpec fields "
                f"([dut] in TOML)")
        raw_variants = payload.get("variants", ())
        if isinstance(raw_variants, str) or \
                not isinstance(raw_variants, Sequence):
            raise EngineError(
                f"{source}: 'variants' must be an array of variant tables "
                f"([[variants]] in TOML)")
        variants = []
        for position, raw in enumerate(raw_variants):
            if not isinstance(raw, Mapping):
                raise EngineError(
                    f"{source}: variants[{position}] is not a table/object")
            variant_unknown = sorted(set(raw) - {"name", "dut"})
            if variant_unknown:
                raise EngineError(
                    f"{source}: variants[{position}] has unknown keys "
                    f"{variant_unknown}; expected ['dut', 'name']")
            variant_name = raw.get("name")
            if not isinstance(variant_name, str) or not variant_name:
                raise EngineError(
                    f"{source}: variants[{position}] needs a string 'name'")
            variant_dut = raw.get("dut", {})
            if not isinstance(variant_dut, Mapping):
                raise EngineError(
                    f"{source}: variants[{position}].dut must be a table "
                    f"of DUT overrides")
            variants.append(VariantSpec(name=variant_name,
                                        dut=dict(variant_dut)))
        return cls(name=name, seed=payload.get("seed", 1),
                   params=dict(params), stages=tuple(stages),
                   dut=dict(dut), variants=tuple(variants)).validated()

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_jsonable(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str, source: str = "study") -> "StudySpec":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise EngineError(f"{source}: not valid JSON: {exc}") from None
        return cls.from_jsonable(payload, source=source)

    # ---------------------------------------------------------------- TOML
    def to_toml(self) -> str:
        """Emit the spec as TOML (the canonical on-disk study format).

        TOML cannot express ``null``.  After normalisation the only
        ``None`` values left in a spec are *meaningful* explicit nulls
        (e.g. ``escape.max_escape_defects = null`` = analyse everything),
        so emitting would silently change the study on the way back in;
        :class:`~repro.circuit.errors.EngineError` is raised instead --
        use :meth:`to_json` for such specs.
        """
        payload = self.to_jsonable()
        lines = [f"name = {_toml_value(payload['name'])}",
                 f"seed = {_toml_value(payload['seed'])}"]
        if payload.get("dut"):
            lines += ["", "[dut]"]
            lines += _toml_table(payload["dut"], "[dut]")
        if payload.get("params"):
            lines += ["", "[params]"]
            lines += _toml_table(payload["params"], "[params]")
        for stage in payload["stages"]:
            lines += ["", "[[stages]]", f"stage = {_toml_value(stage['stage'])}"]
            if "name" in stage:
                lines.append(f"name = {_toml_value(stage['name'])}")
            if "after" in stage:
                lines.append(f"after = {_toml_value(stage['after'])}")
            if stage.get("params"):
                lines.append("[stages.params]")
                lines += _toml_table(stage["params"],
                                     f"stage {stage['stage']!r}")
        for variant in payload.get("variants", []):
            lines += ["", "[[variants]]",
                      f"name = {_toml_value(variant['name'])}"]
            if variant.get("dut"):
                lines.append("[variants.dut]")
                lines += _toml_table(variant["dut"],
                                     f"variant {variant['name']!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_toml(cls, text: str, source: str = "study") -> "StudySpec":
        payload = _parse_toml(text, source)
        return cls.from_jsonable(payload, source=source)


def _jsonable_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in params.items()}


def _assign_dut_path(dut: Dict[str, Any], path: Sequence[str],
                     value: Any) -> None:
    """Apply one ``--set dut.<path>=value`` assignment into a DUT payload.

    Walks/creates nested tables for multi-segment paths
    (``block_params.bandgap.vbg``); ``None`` removes the leaf so the field
    falls back to its default.  Field validation happens afterwards in
    :meth:`StudySpec.validated` via the DutSpec round-trip.
    """
    table = dut
    for position, segment in enumerate(path[:-1]):
        inner = table.get(segment)
        if inner is None:
            if value is None:
                return  # removing below a missing table: nothing to do
            inner = table[segment] = {}
        elif not isinstance(inner, dict):
            joined = ".".join(["dut", *path[:position + 1]])
            raise EngineError(
                f"--set dut.{'.'.join(path)}: {joined} is not a table")
        table = inner
    if value is None:
        table.pop(path[-1], None)
    else:
        table[path[-1]] = value


def _toml_value(value: Any) -> str:
    """Serialise one scalar/list/map parameter value as TOML."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)  # TOML basic strings == JSON strings
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(entry) for entry in value) + "]"
    if isinstance(value, Mapping):
        body = ", ".join(f"{json.dumps(key)} = {_toml_value(entry)}"
                         for key, entry in value.items())
        return "{ " + body + " }" if body else "{}"
    raise EngineError(f"cannot serialise {value!r} to TOML")


def _toml_table(params: Mapping[str, Any], where: str) -> List[str]:
    for key, value in params.items():
        if value is None:
            # Normalisation already dropped redundant nulls; one that
            # survived is semantically meaningful and TOML cannot say it.
            raise EngineError(
                f"{where}: parameter {key!r} is an explicit null, which "
                f"TOML cannot express; serialise this spec with to_json() "
                f"instead")
    return [f"{key} = {_toml_value(value)}" for key, value in params.items()]


def _parse_toml(text: str, source: str) -> Any:
    try:
        import tomllib
    except ImportError:  # pragma: no cover (python < 3.11)
        try:
            import tomli as tomllib  # type: ignore[no-redef]
        except ImportError:
            raise EngineError(
                f"{source}: reading TOML study specs needs Python >= 3.11 "
                f"(tomllib) or the 'tomli' package; alternatively convert "
                f"the spec to JSON") from None
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise EngineError(f"{source}: not valid TOML: {exc}") from None


def load_study(path: str) -> StudySpec:
    """Load a study spec from a ``.toml`` or ``.json`` file.

    A bare canned-study name (``block-study``, ...) is also accepted, so
    ``repro-campaign run block-study`` works without a file on disk.
    """
    if path in CANNED_STUDIES:
        return CANNED_STUDIES[path]
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        canned = ", ".join(sorted(CANNED_STUDIES))
        raise EngineError(
            f"cannot read study spec {path!r} ({exc.strerror or exc}); "
            f"expected a .toml/.json study file or one of the canned "
            f"studies: {canned}") from None
    if path.endswith(".json"):
        return StudySpec.from_json(text, source=path)
    return StudySpec.from_toml(text, source=path)


# =================================================================== compile

class StudyBuild:
    """Mutable state threaded through stage expansion by :func:`build_study`.

    Expanders (see :mod:`repro.engine.registry`) read shared context (the
    stimulus, invariances, device under test, LWRS selection) from here and
    record what they produced (task ids, cache spec fragments) for
    downstream stages and the final :class:`StudyPlan`.
    """

    def __init__(self, spec: StudySpec, adc_factory: Any,
                 variation_spec: Any, dut_spec: Any = None,
                 variant: Optional[str] = None,
                 pipeline: Optional[Pipeline] = None,
                 seed: Optional[int] = None) -> None:
        from ..adc.sar_adc import DutAdcFactory, SarAdc
        from ..core.invariance import build_invariances
        from ..core.stimulus import SymBistStimulus
        from ..core.test_time import CheckingMode
        from ..dut import default_dut

        self.spec = spec
        self.dut_spec = dut_spec if dut_spec is not None else default_dut()
        self.variant = variant
        #: Prefixed onto task ids (and pipeline stage names, by
        #: ``build_study``) so several variants share one task graph without
        #: id collisions; empty on the default single-DUT path, which keeps
        #: every historical id byte-identical.
        self.task_prefix = f"{variant}/" if variant else ""
        self.seed = spec.seed if seed is None else seed
        if adc_factory is not None:
            self.adc_factory = adc_factory
        elif self.dut_spec.is_default:
            self.adc_factory = SarAdc
        else:
            self.adc_factory = DutAdcFactory(self.dut_spec)
        self.variation_spec = variation_spec if variation_spec is not None \
            else self.dut_spec.variation_spec()
        self.pipeline = pipeline if pipeline is not None \
            else Pipeline(spec.name)
        # At the default DutSpec these are exactly SymBistStimulus()'s own
        # defaults, so the stimulus dataclass -- and every cache spec it
        # feeds -- is identical to the historical construction.
        self.stimulus = SymBistStimulus(
            input_diff=self.dut_spec.test_input_diff,
            input_cm=self.dut_spec.common_mode,
            counter_bits=self.dut_spec.half_bits)
        self.invariances = build_invariances()
        self.invariance_names = [inv.name for inv in self.invariances]
        self.mode = CheckingMode.SEQUENTIAL

        #: kind -> instance label, filled as stages expand.
        self.expanded: Dict[str, str] = {}

        # calibrate outputs
        self.calibrate_stage: Optional[str] = None
        self.n_monte_carlo = 0
        self.calib_ids: List[str] = []
        self.calib_spec: Any = None
        self.seeds_token: Optional[str] = None
        self.cacheable = False

        # windows outputs
        self.windows_stage: Optional[str] = None
        self.per_block = False
        self.nominal_k = 5.0
        self.delta_floors: Optional[Dict[str, float]] = None
        self.windows_task_id: Optional[str] = None
        self.windows_task_ids: Dict[str, str] = {}
        self.windows_specs: Dict[Any, Any] = {}

        # campaign outputs
        self.campaign_stage: Optional[str] = None
        self.stop_on_detection = True
        self.worker_token = ""
        self.block_plans: Dict[str, Any] = {}
        self.block_universes: Dict[str, Any] = {}
        self.block_task_ids: Dict[str, List[str]] = {}
        self.block_defect_specs: Dict[str, List[Any]] = {}

        # summary / yield / escape outputs
        self.summary_stage: Optional[str] = None
        self.summary_task_ids: Dict[str, str] = {}
        self.yield_stage: Optional[str] = None
        self.yield_task_ids: List[str] = []
        self.k_values: List[float] = []
        self.escape_stage: Optional[str] = None
        self.escape_task_id: Optional[str] = None

        self._dut: Optional[Tuple[Any, str, Any]] = None
        self._selection: Optional[Mapping[str, Any]] = None
        self._block_list: Optional[List[str]] = None

    # ------------------------------------------------------------- plumbing
    def require(self, name: str, kind: str) -> str:
        """The instance label of an already expanded ``kind``, or raise."""
        try:
            return self.expanded[kind]
        except KeyError:
            raise EngineError(
                f"study {self.spec.name!r}: stage {name!r} needs an "
                f"upstream {kind!r} stage; declare one earlier in the "
                f"stage list") from None

    def annotate(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Fold the build's DUT fingerprint / variant label into one cache
        spec.  A no-op (the very same dict) for a default-DUT non-variant
        build, so historical cache keys stay byte-identical; otherwise the
        extra keys both segregate cache entries and let the warehouse
        indexer attribute artifacts to their variant."""
        if self.dut_spec.is_default and self.variant is None:
            return spec
        annotated = dict(spec)
        if not self.dut_spec.is_default:
            annotated["dut"] = self.dut_spec.fingerprint()
        if self.variant is not None:
            annotated["variant"] = self.variant
        return annotated

    def dut(self) -> Tuple[Any, str, Any]:
        """The device under test: ``(adc, fingerprint, universe)``, built
        once per study however many stages consult it."""
        from .pipeline import _build_dut
        if self._dut is None:
            self._dut = _build_dut(self.adc_factory)
        return self._dut

    def _campaign_params(self) -> Dict[str, Any]:
        """The campaign stage's resolved parameters (it may not have
        expanded yet when per-block windows need the block list)."""
        for entry in self.spec.stages:
            if entry.stage == "campaign":
                definition = stage_definition("campaign")
                return definition.resolve_params(
                    self.spec.params, entry.params,
                    f"study {self.spec.name!r}, stage {entry.label!r}")
        raise EngineError(
            f"study {self.spec.name!r}: per-block windows and summaries "
            f"need a 'campaign' stage to define the block sweep")

    def block_list(self) -> List[str]:
        """The swept blocks, in sweep order (campaign ``blocks`` param, or
        every block of the universe)."""
        if self._block_list is None:
            params = self._campaign_params()
            universe = self.dut()[2]
            blocks = params["blocks"]
            self._block_list = list(blocks) if blocks \
                else universe.block_paths()
        return self._block_list

    def selection(self) -> Mapping[str, Any]:
        """The per-block LWRS selection, derived from ``(root seed, block
        path)`` exactly like :meth:`DefectCampaign.run_per_block`."""
        from ..defects.sampling import per_block_selection
        if self._selection is None:
            params = self._campaign_params()
            self._selection = per_block_selection(
                self.dut()[2], self.seed, params["samples"],
                exhaustive_threshold=params["exhaustive_threshold"],
                blocks=self.block_list(), exhaustive=params["exhaustive"])
        return self._selection

    # ----------------------------------------------------------------- plan
    def plan(self) -> "StudyPlan":
        return StudyPlan(
            spec=self.spec, pipeline=self.pipeline,
            k=self.nominal_k, n_monte_carlo=self.n_monte_carlo,
            stop_on_detection=self.stop_on_detection,
            invariance_names=list(self.invariance_names),
            blocks=list(self._block_list or []),
            block_plans=self.block_plans,
            block_universes=self.block_universes,
            block_task_ids=self.block_task_ids,
            calibration_task_ids=list(self.calib_ids),
            calibrate_stage=self.calibrate_stage,
            windows_stage=self.windows_stage,
            per_block=self.per_block,
            windows_task_id=self.windows_task_id,
            windows_task_ids=dict(self.windows_task_ids),
            campaign_stage=self.campaign_stage,
            summary_stage=self.summary_stage,
            summary_task_ids=dict(self.summary_task_ids),
            yield_stage=self.yield_stage,
            yield_task_ids=list(self.yield_task_ids),
            k_values=list(self.k_values),
            escape_stage=self.escape_stage,
            escape_task_id=self.escape_task_id,
            worker_token=self.worker_token,
            variant=self.variant,
            dut_fingerprint=self.dut_spec.fingerprint())


def build_study(spec: StudySpec,
                adc_factory: Optional[Callable[[], Any]] = None,
                variation_spec: Optional[Any] = None) -> "StudyPlan":
    """Compile a :class:`StudySpec` into a runnable :class:`StudyPlan`.

    Walks the spec's stages in order, resolves each against the stage
    registry (typed parameter validation with actionable errors) and calls
    its expander to add the stage's tasks and dependency edges to one
    :class:`~repro.engine.pipeline.Pipeline`.  Every random draw derives
    from the root seed through a stage-specific derivation, so the results
    are bit-identical on any backend, and equal specs compile to graphs
    with equal content-addressed cache specs (a warm cache replays them).

    A spec with a ``[dut]`` table compiles against that device (through a
    :class:`~repro.adc.sar_adc.DutAdcFactory`); ``[[variants]]`` fans the
    stage list out once per variant into one shared pipeline -- per-variant
    stage instances (``<variant>/<stage>``), per-variant task ids and
    per-variant root seeds derived from ``(root seed, variant label)``.

    ``adc_factory``/``variation_spec`` stay Python-level arguments (they
    are code, not data); a non-importable factory disables caching.  An
    explicit ``adc_factory`` is rejected
    alongside a declared ``[dut]``/``[[variants]]`` section -- the factory
    is bound to one device and would silently shadow the spec's.
    """
    from ..defects.sampling import variant_seed
    from ..dut import DutSpec

    spec = spec.validated()
    base_dut = DutSpec.from_jsonable(spec.dut)
    if adc_factory is not None and (spec.dut or spec.variants):
        raise EngineError(
            f"study {spec.name!r} declares a [dut]/[[variants]] section; "
            f"drop the explicit adc_factory argument (the factory is "
            f"derived from the spec)")

    if not spec.variants:
        build = StudyBuild(spec, adc_factory, variation_spec,
                           dut_spec=base_dut)
        _expand_stages(build, spec)
        return build.plan()

    pipeline = Pipeline(spec.name)
    parent = StudyPlan(
        spec=spec, pipeline=pipeline, k=5.0, n_monte_carlo=0,
        stop_on_detection=True, invariance_names=[], blocks=[],
        block_plans={}, block_universes={}, block_task_ids={},
        calibration_task_ids=[], dut_fingerprint=base_dut.fingerprint())
    for variant in spec.variants:
        build = StudyBuild(
            spec, None, variation_spec,
            dut_spec=base_dut.merged(variant.dut), variant=variant.name,
            pipeline=pipeline, seed=variant_seed(spec.seed, variant.name))
        _expand_stages(build, spec)
        parent.variants[variant.name] = build.plan()
    return parent


def _expand_stages(build: StudyBuild, spec: StudySpec) -> None:
    """Expand every stage of ``spec`` into ``build``'s pipeline (labels
    prefixed by the build's variant, if any)."""
    for entry in spec.stages:
        definition = stage_definition(entry.stage)
        label = build.task_prefix + entry.label
        if entry.stage in build.expanded:
            raise EngineError(
                f"study {spec.name!r} declares the {entry.stage!r} stage "
                f"twice; multiple instances of one stage kind are not "
                f"supported yet")
        params = definition.resolve_params(
            spec.params, entry.params,
            f"study {spec.name!r}, stage {label!r}")
        definition.expand(build, label, params)
        build.expanded[entry.stage] = label


# ======================================================================= run

@dataclass
class StudyOutcome:
    """Everything produced by one study run, with named-stage accessors.

    One class for every study shape (it replaces the per-study Outcome
    dataclasses): fields not produced by the study's stages stay at their
    empty defaults, e.g. ``yield_points`` is ``[]`` for a plain
    calibrate -> campaign study.
    """

    spec: StudySpec
    #: Per-stage statuses and raw results of the underlying engine run.
    pipeline: PipelineResult
    #: The single report spanning every stage.
    report: CampaignReport
    #: One :class:`~repro.core.WindowCalibration` per windows reduction
    #: that completed -- keyed by block for per-block windows, by the
    #: windows task id for a global reduction.
    calibrations: Dict[str, Any] = field(default_factory=dict)
    #: One :class:`~repro.defects.simulator.CampaignResult` per fully
    #: completed block, in sweep order; blocks with failed or skipped tasks
    #: are absent (inspect :attr:`pipeline` for their status).
    results: Dict[str, Any] = field(default_factory=dict)
    #: One JSON-ready per-block reduction per completed block-summary task.
    summaries: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: One :class:`~repro.analysis.YieldLossPoint` per requested ``k``, in
    #: ``k_values`` order; points whose task failed/skipped are absent.
    yield_points: List[Any] = field(default_factory=list)
    #: The :class:`~repro.analysis.EscapeAnalysisResult`, or None when the
    #: study has no escape stage (or its task failed).
    escapes: Optional[Any] = None
    #: The variant label this outcome belongs to (None outside variant
    #: studies) and the DUT fingerprint it ran against.
    variant: Optional[str] = None
    dut_fingerprint: str = ""
    #: Per-variant outcomes of a multi-variant study, in declaration order;
    #: empty for single-DUT studies (whose results live on the fields
    #: above).
    variants: Dict[str, "StudyOutcome"] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.pipeline.ok

    @property
    def calibration(self) -> Optional[Any]:
        """The study's window calibration (the global reduction, or the
        first block's for per-block studies); None when it failed."""
        return next(iter(self.calibrations.values()), None)

    def stage_results(self, stage: str) -> Dict[str, Any]:
        """Raw results of one named stage's completed tasks."""
        return self.pipeline.stage_results(stage)

    def stage_statuses(self, stage: str) -> Dict[str, str]:
        """Terminal status of every task of one named stage."""
        return self.pipeline.stage_statuses(stage)


@dataclass
class StudyPlan:
    """A compiled (not yet run) study graph plus assembly metadata.

    Produced by :func:`build_study`.  One class serves every study shape
    (it replaces the per-study Plan dataclasses); fields describing stages
    a study does not declare stay empty.
    """

    spec: StudySpec
    pipeline: Pipeline
    k: float
    n_monte_carlo: int
    stop_on_detection: bool
    invariance_names: List[str]
    blocks: List[str]
    block_plans: Dict[str, Any]
    block_universes: Dict[str, Any]
    block_task_ids: Dict[str, List[str]]
    calibration_task_ids: List[str]
    calibrate_stage: Optional[str] = None
    windows_stage: Optional[str] = None
    per_block: bool = False
    windows_task_id: Optional[str] = None
    windows_task_ids: Dict[str, str] = field(default_factory=dict)
    campaign_stage: Optional[str] = None
    summary_stage: Optional[str] = None
    summary_task_ids: Dict[str, str] = field(default_factory=dict)
    yield_stage: Optional[str] = None
    yield_task_ids: List[str] = field(default_factory=list)
    k_values: List[float] = field(default_factory=list)
    escape_stage: Optional[str] = None
    escape_task_id: Optional[str] = None
    #: Key of the per-process campaign built by the campaign stage workers;
    #: used to release the parent-process instance after the run.
    worker_token: str = ""
    #: The variant label this plan's stages belong to (None outside
    #: variant studies) and the DUT fingerprint they compile against.
    variant: Optional[str] = None
    dut_fingerprint: str = ""
    #: Per-variant sub-plans of a multi-variant study, in declaration
    #: order, all sharing :attr:`pipeline`; empty for single-DUT studies.
    variants: Dict[str, "StudyPlan"] = field(default_factory=dict)

    def run(self, backend: Optional[ExecutionBackend] = None,
            cache: Optional[ResultCache] = None,
            on_failure: str = "raise",
            telemetry: Optional[TelemetryBus] = None,
            cancel: Optional[Callable[[], bool]] = None) -> StudyOutcome:
        """Execute the graph through one engine run and assemble the
        :class:`StudyOutcome` from the named stages' results (per-variant
        outcomes land in :attr:`StudyOutcome.variants`).

        ``cancel`` is the engine's cooperative-stop probe; when it fires,
        the outcome assembles whatever completed and
        ``outcome.pipeline.run.cancelled`` is True."""
        from ..defects.simulator import _WORKER_STATE

        try:
            result = self.pipeline.run(backend=backend, cache=cache,
                                       on_failure=on_failure,
                                       telemetry=telemetry,
                                       cancel=cancel)
        finally:
            # Serial runs build the campaign in this process; drop it so
            # the ADC/hierarchy/injector do not outlive the run.  A variant
            # study holds one campaign per variant.
            tokens = [self.worker_token] + [plan.worker_token
                                            for plan in self.variants.values()]
            for token in tokens:
                if token:
                    _WORKER_STATE.pop(token, None)

        outcome = self._assemble(result)
        for label, plan in self.variants.items():
            outcome.variants[label] = plan._assemble(result)
        return outcome

    def _assemble(self, result: PipelineResult) -> StudyOutcome:
        """Collect this plan's named-stage results out of one (possibly
        shared) pipeline run."""
        from ..core.calibration import calibration_from_windows
        from ..defects.simulator import CampaignResult

        outcome = StudyOutcome(spec=self.spec, pipeline=result,
                               report=result.report,
                               variant=self.variant,
                               dut_fingerprint=self.dut_fingerprint)

        if self.windows_stage is not None:
            windows_results = result.stage_results(self.windows_stage)
            if self.per_block:
                outcome.calibrations = {
                    block: calibration_from_windows(
                        windows_results[tid], self.invariance_names)
                    for block, tid in self.windows_task_ids.items()
                    if tid in windows_results}
            elif self.windows_task_id in windows_results:
                outcome.calibrations = {
                    self.windows_task_id: calibration_from_windows(
                        windows_results[self.windows_task_id],
                        self.invariance_names)}

        if self.campaign_stage is not None:
            records = result.stage_results(self.campaign_stage)
            for block in self.blocks:
                task_ids = self.block_task_ids[block]
                if not all(tid in records for tid in task_ids):
                    continue
                outcome.results[block] = CampaignResult(
                    records=[record for tid in task_ids
                             for record in records[tid]],
                    universe=self.block_universes[block],
                    plan=self.block_plans[block],
                    stop_on_detection=self.stop_on_detection)

        if self.summary_stage is not None:
            summary_results = result.stage_results(self.summary_stage)
            outcome.summaries = {
                block: summary_results[tid]
                for block, tid in self.summary_task_ids.items()
                if tid in summary_results}

        if self.yield_stage is not None:
            yield_results = result.stage_results(self.yield_stage)
            outcome.yield_points = [yield_results[tid]
                                    for tid in self.yield_task_ids
                                    if tid in yield_results]

        if self.escape_stage is not None:
            outcome.escapes = result.stage_results(
                self.escape_stage).get(self.escape_task_id)
        return outcome


def run_study(spec: StudySpec,
              backend: Optional[ExecutionBackend] = None,
              cache: Optional[ResultCache] = None,
              on_failure: str = "raise",
              telemetry: Optional[TelemetryBus] = None,
              adc_factory: Optional[Callable[[], Any]] = None,
              variation_spec: Optional[Any] = None,
              cancel: Optional[Callable[[], bool]] = None) -> StudyOutcome:
    """Compile and run a study spec: :func:`build_study` +
    :meth:`StudyPlan.run`.  ``backend``/``cache`` follow the usual engine
    conventions (serial and uncached by default)."""
    plan = build_study(spec, adc_factory=adc_factory,
                       variation_spec=variation_spec)
    return plan.run(backend=backend, cache=cache, on_failure=on_failure,
                    telemetry=telemetry, cancel=cancel)


# ============================================================ canned studies
#
# The paper's three workflows as StudySpec constants.  Parameters are the
# registry defaults; callers customise them with StudySpec.override (the
# CLI's `run <name> --set stage.param=value`).

CALIBRATE_THEN_CAMPAIGN = StudySpec(
    name="calibrate-then-campaign",
    stages=(
        StageSpec(stage="calibrate"),
        StageSpec(stage="windows", after=("calibrate",)),
        StageSpec(stage="campaign", after=("windows",)),
    )).validated()

BLOCK_STUDY = StudySpec(
    name="block-study",
    stages=(
        StageSpec(stage="calibrate"),
        StageSpec(stage="windows", after=("calibrate",),
                  params={"per_block": True}),
        StageSpec(stage="campaign", after=("windows",)),
        StageSpec(stage="block-summary", name="summary",
                  after=("windows", "campaign")),
    )).validated()

YIELD_LOSS_STUDY = StudySpec(
    name="yield-loss-study",
    stages=(
        StageSpec(stage="calibrate"),
        StageSpec(stage="windows", after=("calibrate",)),
        StageSpec(stage="campaign", after=("windows",)),
        StageSpec(stage="yield", after=("calibrate",)),
        StageSpec(stage="escape", after=("campaign",)),
    )).validated()

#: The canned studies by name (also accepted by ``repro-campaign run``).
CANNED_STUDIES: Dict[str, StudySpec] = {
    spec.name: spec
    for spec in (CALIBRATE_THEN_CAMPAIGN, BLOCK_STUDY, YIELD_LOSS_STUDY)}
