"""Tests for the declarative study layer (StudySpec + stage registry)."""

import json

import numpy as np
import pytest

from repro.circuit import CalibrationError, EngineError
from repro.engine import (BLOCK_STUDY, CALIBRATE_THEN_CAMPAIGN,
                          CANNED_STUDIES, StageParam, StageSpec,
                          StudySpec, YIELD_LOSS_STUDY, available_stages,
                          build_study, load_study, run_study,
                          stage_definition)
from repro.engine.registry import coerce_param

MC = 3
SEED = 1
BLOCK = "vcm_generator"
STUDY_BLOCKS = ["vcm_generator", "offset_compensation"]


# -------------------------------------------------------------- round trips

#: A spec exercising every parameter kind (floats, bools, lists, maps).
RICH_SPEC = StudySpec(
    name="rich",
    seed=7,
    params={"k": 4.5},
    stages=(
        StageSpec(stage="calibrate", params={"n_monte_carlo": 5}),
        StageSpec(stage="windows", after=("calibrate",),
                  params={"per_block": True,
                          "delta_floors": {"sign": 0.25},
                          "block_k": {"vcm_generator": 6.0}}),
        StageSpec(stage="campaign", after=("windows",),
                  params={"samples": 8, "blocks": ["vcm_generator"],
                          "stop_on_detection": False}),
        StageSpec(stage="block-summary", name="summary",
                  after=("windows", "campaign")),
    )).validated()


class TestRoundTrip:
    @pytest.mark.parametrize("spec", [CALIBRATE_THEN_CAMPAIGN, BLOCK_STUDY,
                                      YIELD_LOSS_STUDY, RICH_SPEC],
                             ids=lambda spec: spec.name)
    def test_toml_json_toml_identity(self, spec):
        """TOML -> StudySpec -> JSON -> StudySpec -> TOML is the identity."""
        from_toml = StudySpec.from_toml(spec.to_toml())
        assert from_toml == spec
        from_json = StudySpec.from_json(from_toml.to_json())
        assert from_json == spec
        assert from_json.to_toml() == spec.to_toml()

    def test_defaults_are_normalised_away(self):
        """Spelling a parameter at its registry default == omitting it."""
        explicit = StudySpec.from_toml(
            'name = "x"\nseed = 1\n'
            '[[stages]]\nstage = "calibrate"\n'
            '[stages.params]\nn_monte_carlo = 50\n')
        minimal = StudySpec.from_toml(
            'name = "x"\n[[stages]]\nstage = "calibrate"\n')
        assert explicit == minimal

    def test_stage_pin_at_default_survives_a_study_wide_override(self):
        """An explicit per-stage value equal to the registry default still
        overrides a study-wide value for the same key."""
        spec = StudySpec.from_toml(
            'name = "x"\n[params]\nk = 6.0\n'
            '[[stages]]\nstage = "calibrate"\n'
            '[[stages]]\nstage = "windows"\n[stages.params]\nk = 5.0\n'
            '[[stages]]\nstage = "campaign"\n'
            '[[stages]]\nstage = "yield"\n')
        windows = stage_definition("windows").resolve_params(
            spec.params, spec.stages[1].params, "here")
        assert windows["k"] == 5.0  # the deliberate pin wins
        yield_params = stage_definition("yield").resolve_params(
            spec.params, spec.stages[3].params, "here")
        assert yield_params["k"] == 6.0  # unpinned stages take the study k
        assert build_study(spec).k == 5.0
        # ...and the pin survives a round trip.
        assert StudySpec.from_toml(spec.to_toml()) == spec

    def test_toml_refuses_meaningful_explicit_nulls(self):
        """max_escape_defects = null (analyse everything) cannot ride
        through TOML; emitting must fail loudly, not revert to 20."""
        spec = YIELD_LOSS_STUDY.override(
            {"escape.max_escape_defects": None})
        with pytest.raises(EngineError, match="to_json"):
            spec.to_toml()
        # The JSON form carries it faithfully.
        back = StudySpec.from_json(spec.to_json())
        assert back == spec
        assert back.stages[-1].params["max_escape_defects"] is None

    def test_toml_int_equals_json_float(self):
        """`k = 5` (TOML int) and `"k": 5.0` (JSON) coerce identically."""
        toml_spec = StudySpec.from_toml(
            'name = "x"\n[[stages]]\nstage = "calibrate"\n'
            '[[stages]]\nstage = "windows"\n[stages.params]\nk = 6\n')
        json_spec = StudySpec.from_json(json.dumps({
            "name": "x",
            "stages": [{"stage": "calibrate"},
                       {"stage": "windows", "params": {"k": 6.0}}]}))
        assert toml_spec == json_spec
        k = toml_spec.stages[1].params["k"]
        assert isinstance(k, float) and k == 6.0

    def test_load_study_from_files_and_canned_names(self, tmp_path):
        toml_path = tmp_path / "study.toml"
        toml_path.write_text(BLOCK_STUDY.to_toml())
        json_path = tmp_path / "study.json"
        json_path.write_text(BLOCK_STUDY.to_json())
        assert load_study(str(toml_path)) == BLOCK_STUDY
        assert load_study(str(json_path)) == BLOCK_STUDY
        for name, spec in CANNED_STUDIES.items():
            assert load_study(name) == spec

    def test_load_study_missing_file_names_the_canned_studies(self):
        with pytest.raises(EngineError, match="block-study"):
            load_study("no/such/study.toml")

    def test_example_specs_parse_to_exactly_the_canned_specs(self):
        """The shipped examples/studies/*.toml documents (which spell the
        registry defaults out for readability) normalise to the canned
        specs, so they can never drift from what the subcommands run.
        Examples without a canned counterpart (the variant sweep) must
        still load and round-trip cleanly."""
        import os
        studies_dir = os.path.join(os.path.dirname(__file__), "..", "..",
                                   "examples", "studies")
        expected = {"calibrate_then_campaign.toml": "calibrate-then-campaign",
                    "block_study.toml": "block-study",
                    "yield_loss_study.toml": "yield-loss-study"}
        listing = sorted(os.listdir(studies_dir))
        assert sorted(expected) == [name for name in listing
                                    if name in expected]
        for filename, name in expected.items():
            path = os.path.join(studies_dir, filename)
            assert load_study(path) == CANNED_STUDIES[name], filename
        for filename in listing:
            if filename in expected:
                continue
            spec = load_study(os.path.join(studies_dir, filename))
            assert StudySpec.from_toml(spec.to_toml()) == spec, filename


# -------------------------------------------------------------- validation

def _single_stage(stage, **params):
    return StudySpec(name="x", stages=(StageSpec(stage=stage,
                                                 params=params),))


class TestValidation:
    def test_unknown_stage_lists_registered_stages(self):
        with pytest.raises(EngineError) as excinfo:
            _single_stage("calibrat").validated()
        message = str(excinfo.value)
        assert "calibrat" in message
        for name in ("calibrate", "windows", "campaign", "yield", "escape",
                     "block-summary"):
            assert name in message

    def test_unknown_parameter_lists_stage_parameters(self):
        with pytest.raises(EngineError) as excinfo:
            _single_stage("calibrate", monte_carlo=50).validated()
        message = str(excinfo.value)
        assert "monte_carlo" in message
        assert "n_monte_carlo" in message

    def test_wrong_parameter_type_is_actionable(self):
        with pytest.raises(EngineError, match="expects an integer"):
            _single_stage("calibrate", n_monte_carlo="lots").validated()
        with pytest.raises(EngineError, match="expects a number"):
            _single_stage("windows", k="wide").validated()

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(EngineError, match="stgaes"):
            StudySpec.from_toml('name = "x"\n[[stgaes]]\nstage = "c"\n')

    def test_duplicate_stage_names_rejected(self):
        spec = StudySpec(name="x", stages=(
            StageSpec(stage="calibrate"),
            StageSpec(stage="windows", name="calibrate")))
        with pytest.raises(EngineError, match="two stages named"):
            spec.validated()

    def test_after_must_reference_an_earlier_stage(self):
        spec = StudySpec(name="x", stages=(
            StageSpec(stage="calibrate", after=("windows",)),
            StageSpec(stage="windows")))
        with pytest.raises(EngineError, match="not an earlier stage"):
            spec.validated()

    def test_unknown_study_level_parameter_rejected(self):
        spec = StudySpec(name="x", params={"kay": 5.0},
                         stages=(StageSpec(stage="calibrate"),))
        with pytest.raises(EngineError, match="kay"):
            spec.validated()

    def test_missing_upstream_stage_is_actionable(self):
        # A campaign with no windows stage cannot compile.
        spec = StudySpec(name="x", stages=(
            StageSpec(stage="calibrate"),
            StageSpec(stage="campaign")))
        with pytest.raises(EngineError, match="'windows' stage"):
            build_study(spec)

    def test_block_summary_needs_per_block_windows(self):
        spec = StudySpec(name="x", stages=(
            StageSpec(stage="calibrate"),
            StageSpec(stage="windows"),
            StageSpec(stage="campaign"),
            StageSpec(stage="block-summary")))
        with pytest.raises(EngineError, match="per_block"):
            build_study(spec)

    def test_duplicate_stage_kind_rejected_at_compile(self):
        spec = StudySpec(name="x", stages=(
            StageSpec(stage="calibrate"),
            StageSpec(stage="calibrate", name="calibrate2")))
        with pytest.raises(EngineError, match="twice"):
            build_study(spec)

    def test_bad_k_rejected_before_any_work(self):
        spec = CALIBRATE_THEN_CAMPAIGN.override({"windows.k": -1.0})
        with pytest.raises(CalibrationError):
            build_study(spec)

    def test_override_unknown_stage_is_actionable(self):
        with pytest.raises(EngineError, match="known stages"):
            BLOCK_STUDY.override({"windws.k": 6.0})

    def test_override_nullable_and_removal_semantics(self):
        spec = YIELD_LOSS_STUDY.override({
            "campaign.blocks": ["sc_array"],
            "escape.max_escape_defects": None})
        campaign = next(s for s in spec.stages if s.stage == "campaign")
        escape = next(s for s in spec.stages if s.stage == "escape")
        assert campaign.params["blocks"] == ("sc_array",)
        # Explicit null on a nullable parameter is preserved (analyse all).
        assert escape.params["max_escape_defects"] is None
        # Overriding a non-nullable parameter with None restores the default.
        restored = spec.override({"campaign.blocks": None,
                                  "escape.max_escape_defects": 20})
        campaign = next(s for s in restored.stages if s.stage == "campaign")
        escape = next(s for s in restored.stages if s.stage == "escape")
        assert "blocks" not in campaign.params
        assert "max_escape_defects" not in escape.params


class TestRegistry:
    def test_stage_definitions_expose_typed_schemas(self):
        names = [definition.name for definition in available_stages()]
        assert names == ["calibrate", "windows", "campaign", "yield",
                         "escape", "block-summary"]
        campaign = stage_definition("campaign")
        assert campaign.param("samples").kind == "int"
        assert campaign.param("blocks").nullable

    def test_unknown_stage_definition_is_actionable(self):
        with pytest.raises(EngineError, match="registered stages"):
            stage_definition("nope")

    def test_coerce_param_kinds(self):
        str_list = StageParam("blocks", "str_list")
        assert coerce_param(str_list, "a,b", "here") == ("a", "b")
        float_list = StageParam("k_values", "float_list")
        assert coerce_param(float_list, [2, 3.5], "here") == (2.0, 3.5)
        assert coerce_param(float_list, "2,3.5", "here") == (2.0, 3.5)
        float_map = StageParam("block_k", "float_map")
        assert coerce_param(float_map, {"a": 2}, "here") == {"a": 2.0}
        assert coerce_param(StageParam("s", "str"), "x", "here") == "x"
        with pytest.raises(EngineError, match="boolean"):
            coerce_param(StageParam("flag", "bool"), 1, "here")
        with pytest.raises(EngineError, match="a string"):
            coerce_param(StageParam("s", "str"), 3, "here")
        with pytest.raises(EngineError, match="list of numbers"):
            coerce_param(float_list, "2,wide", "here")
        with pytest.raises(EngineError, match="list of strings"):
            coerce_param(str_list, [1, 2], "here")
        with pytest.raises(EngineError, match="name -> number"):
            coerce_param(float_map, {"a": "x"}, "here")
        with pytest.raises(EngineError, match="non-null"):
            coerce_param(StageParam("n", "int"), None, "here")
        with pytest.raises(EngineError, match="unknown kind"):
            StageParam("x", "complex")


# ----------------------------------------------------------- bit identity

def _record_digest(result):
    return [(r.defect.defect_id, r.detected, r.detecting_invariance,
             r.detection_cycle, r.cycles_run) for r in result.records]


class TestCannedSpecBitIdentity:
    """Each canned spec, compiled through build_study, reproduces the
    independent manual flow bit for bit -- on every backend."""

    def test_calibrate_then_campaign_vs_manual_flow(self):
        from repro.adc import SarAdc
        from repro.core import calibrate_windows
        from repro.defects import DefectCampaign, SamplingPlan

        calibration = calibrate_windows(
            k=5.0, n_monte_carlo=MC, rng=np.random.default_rng(SEED))
        campaign = DefectCampaign(adc=SarAdc(), deltas=calibration.deltas)
        plan = SamplingPlan(
            exhaustive=len(campaign.universe.by_block(BLOCK)) <= 120,
            n_samples=60)
        manual = campaign.run(plan, blocks=[BLOCK],
                              rng=np.random.default_rng(SEED))

        spec = CALIBRATE_THEN_CAMPAIGN.override({
            "seed": SEED, "calibrate.n_monte_carlo": MC,
            "campaign.blocks": [BLOCK]})
        outcome = run_study(spec)
        assert outcome.ok
        assert outcome.calibration.deltas == calibration.deltas
        assert _record_digest(outcome.results[BLOCK]) == \
            _record_digest(manual)

    @pytest.mark.parametrize("backend_name", ["serial", "multiprocess", "shm"])
    def test_block_study_vs_manual_flow_on_every_backend(self, backend_name,
                                                        cli_backend):
        from repro.adc import SarAdc
        from repro.core import calibrate_windows
        from repro.defects import DefectCampaign

        calibration = calibrate_windows(
            k=5.0, n_monte_carlo=MC, rng=np.random.default_rng(SEED))
        campaign = DefectCampaign(adc=SarAdc(), deltas=calibration.deltas)
        manual = campaign.run_per_block(
            n_samples_per_block=10, seed=SEED, exhaustive_threshold=20,
            blocks=STUDY_BLOCKS)

        spec = BLOCK_STUDY.override({
            "seed": SEED, "calibrate.n_monte_carlo": MC,
            "campaign.blocks": STUDY_BLOCKS, "campaign.samples": 10,
            "campaign.exhaustive_threshold": 20})
        outcome = run_study(spec, backend=cli_backend(backend_name))
        assert outcome.ok
        for block in STUDY_BLOCKS:
            assert outcome.calibrations[block].deltas == calibration.deltas
            assert _record_digest(outcome.results[block]) == \
                _record_digest(manual[block])
            assert outcome.summaries[block]["n_detected"] == \
                manual[block].n_detected


class TestStudyOutcomeAccessors:
    def test_named_stage_accessors(self):
        spec = CALIBRATE_THEN_CAMPAIGN.override({
            "seed": SEED, "calibrate.n_monte_carlo": MC,
            "campaign.blocks": [BLOCK]})
        outcome = run_study(spec)
        assert set(outcome.stage_results("calibrate")) == \
            {f"calib/{i}" for i in range(MC)}
        assert outcome.stage_statuses("windows") == {"windows": "executed"}
        # Stages the study does not declare stay at their empty defaults.
        assert outcome.yield_points == []
        assert outcome.escapes is None
        assert outcome.summaries == {}

    def test_plan_exposes_legacy_metadata(self):
        plan = build_study(BLOCK_STUDY.override({
            "calibrate.n_monte_carlo": MC, "campaign.blocks": [BLOCK],
            "campaign.samples": 10, "campaign.exhaustive_threshold": 20}))
        assert plan.base is plan
        assert plan.windows_task_ids == {BLOCK: f"windows/{BLOCK}"}
        assert plan.summary_task_ids == {BLOCK: f"summary/{BLOCK}"}
        assert plan.pipeline.stage_names() == \
            ["calibrate", "windows", "campaign", "summary"]
