"""Serial-vs-parallel bit-identity and cache behaviour of the study stages.

These tests pin the engine's core guarantee at the workload level: a defect
campaign, a window calibration or a yield sweep run as a study and sharded
across a process pool produces results byte-identical to the serial run --
and to the plain in-process model functions -- and a warm cache replays
them near-instantly.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest

from repro.adc import SarAdc
from repro.analysis import yield_loss_sweep
from repro.core import calibrate_windows, collect_defect_free_residuals
from repro.defects import (RECORD_CODEC, DefectCampaign, LikelihoodModel,
                           SamplingPlan)
from repro.defects.simulator import defect_batch_tasks
from repro.engine import (CALIBRATE_THEN_CAMPAIGN, STATUS_CACHED,
                          STATUS_EXECUTED, ResultCache, SharedMemoryBackend,
                          StageSpec, StudySpec, run_study)

from test_telemetry import TERMINAL, collecting_bus

#: Monte Carlo instances of the campaign studies' calibrations.
MC = 3

#: Every field of a defect record; none of them is a measured time.
RECORD_FIELDS = ["defect", "detected", "detecting_invariance",
                 "detection_cycle", "cycles_run", "modeled_sim_time"]


def record_key(result):
    """Everything that matters about a campaign, as comparable tuples."""
    return [(r.defect.defect_id, r.detected, r.detecting_invariance,
             r.detection_cycle, r.cycles_run, r.modeled_sim_time)
            for r in result.records]


def campaign_spec(seed=11, **campaign):
    """The calibrate -> campaign study with ``campaign.*`` overrides."""
    return CALIBRATE_THEN_CAMPAIGN.override({
        "seed": seed, "calibrate.n_monte_carlo": MC,
        **{f"campaign.{key}": value for key, value in campaign.items()}})


def calibration_spec(seed, n_monte_carlo, k=5.0, yield_k_values=None):
    """A calibrate + windows study (what `repro-campaign calibrate` runs),
    optionally with a yield sweep over the same calibration."""
    stages = [StageSpec(stage="calibrate",
                        params={"n_monte_carlo": n_monte_carlo}),
              StageSpec(stage="windows", after=("calibrate",),
                        params={"k": k})]
    if yield_k_values is not None:
        stages.append(StageSpec(stage="yield", after=("calibrate",),
                                params={"k_values": list(yield_k_values)}))
    return StudySpec(name="calibration", seed=seed, stages=tuple(stages))


def campaign_statuses(outcome):
    return set(outcome.stage_statuses("campaign").values())


#: Two blocks large enough that a 50-defect budget is an LWRS draw each.
LWRS_100 = dict(blocks=["subdac1", "reference_buffer"], samples=50,
                exhaustive_threshold=0)


class _FixedTokenFactory:
    """An ADC factory whose cache token ignores the state of what it builds:
    only the campaign's ADC fingerprint can tell its two variants apart."""

    token = "tests.fixed-token-factory"

    def __init__(self, varied):
        self.varied = varied

    def __call__(self):
        adc = SarAdc()
        if self.varied:
            adc.sample_variation(np.random.default_rng(0), None)
        return adc


class TestCampaignEquivalence:
    def test_exhaustive_block_campaign_identical(self):
        spec = campaign_spec(blocks=["vcm_generator"], exhaustive=True)
        serial = run_study(spec)
        parallel = run_study(spec, backend=SharedMemoryBackend(max_workers=2))
        assert record_key(parallel.results["vcm_generator"]) == \
            record_key(serial.results["vcm_generator"])

    def test_lwrs_campaign_100_defects_4_workers_identical(self):
        """Acceptance criterion: >=100 LWRS defects, 4 workers, identical."""
        spec = campaign_spec(**LWRS_100)
        serial = run_study(spec)
        parallel = run_study(spec, backend=SharedMemoryBackend(max_workers=4))
        assert sum(r.n_simulated for r in serial.results.values()) == 100
        assert all(not r.plan.exhaustive for r in serial.results.values())
        for block, result in serial.results.items():
            assert record_key(parallel.results[block]) == record_key(result)
            assert parallel.results[block].block_report(block) \
                .coverage.value == result.block_report(block).coverage.value
        assert parallel.report.workers == 4

    def test_warm_cache_replays_identically_and_fast(self, tmp_path):
        """Acceptance criterion: warm rerun <10% of the cold wall-clock."""
        cache = ResultCache(str(tmp_path / "cache"), namespace="calibration")
        spec = campaign_spec(**LWRS_100)
        cold = run_study(spec, cache=cache)
        warm = run_study(spec, cache=cache)
        for block, result in cold.results.items():
            assert record_key(warm.results[block]) == record_key(result)
        # Two 50-defect blocks in batches of the default 32: 4 campaign tasks.
        assert warm.report.n_cache_hits == warm.report.n_tasks == MC + 1 + 4
        assert warm.report.n_executed == 0
        assert warm.report.wall_time < 0.1 * cold.report.wall_time

    def test_cache_invalidated_by_spec_change(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), namespace="calibration")
        first = run_study(campaign_spec(blocks=["vcm_generator"],
                                        stop_on_detection=True), cache=cache)
        second = run_study(campaign_spec(blocks=["vcm_generator"],
                                         stop_on_detection=False),
                           cache=cache)
        # stop_on_detection is part of the task spec: no campaign artifact
        # may be reused (the calibration it shares is).
        assert campaign_statuses(second) == {STATUS_EXECUTED}
        assert set(second.stage_statuses("calibrate").values()) == \
            {STATUS_CACHED}
        first_records = first.results["vcm_generator"].records
        second_records = second.results["vcm_generator"].records
        assert any(f.cycles_run < s.cycles_run
                   for f, s in zip(first_records, second_records)
                   if f.detected)

    def test_cache_keyed_on_current_adc_state(self, tmp_path):
        """A different IP state under the same factory token must
        invalidate the campaign's cache keys."""
        cache = ResultCache(str(tmp_path / "cache"), namespace="calibration")
        spec = campaign_spec(blocks=["rs_latch"])
        pristine = run_study(spec, cache=cache,
                             adc_factory=_FixedTokenFactory(varied=False))
        varied = run_study(spec, cache=cache,
                           adc_factory=_FixedTokenFactory(varied=True))
        assert campaign_statuses(pristine) == {STATUS_EXECUTED}
        assert campaign_statuses(varied) == {STATUS_EXECUTED}
        # The token-keyed calibration is shared; only the ADC differs.
        assert set(varied.stage_statuses("calibrate").values()) == \
            {STATUS_CACHED}

    def test_likelihood_model_partitions_cache(self, deltas, tmp_path):
        """Cached records carry defect likelihoods, so campaign tasks over
        defects with different priors must never share artifacts."""
        default = DefectCampaign(adc=SarAdc(), deltas=deltas)
        skewed = DefectCampaign(
            adc=SarAdc(), deltas=deltas,
            likelihood_model=LikelihoodModel(block_scale={"rs_latch": 7.0}))
        base = default.run(SamplingPlan(exhaustive=True), blocks=["rs_latch"])
        replay = skewed.run(SamplingPlan(exhaustive=True),
                            blocks=["rs_latch"])
        # The skewed campaign's records must carry its own (7x) priors.
        for base_rec, skew_rec in zip(base.records, replay.records):
            assert skew_rec.defect.likelihood == \
                pytest.approx(7.0 * base_rec.defect.likelihood)
        # ... and a campaign task's cache key covers them.
        cache = ResultCache(str(tmp_path / "cache"), namespace="calibration")
        key = {"adc": "same-adc", "windows": "same-windows"}

        def keys(result):
            return {cache.key_for(task.spec, None) for task in
                    defect_batch_tasks("campaign", "rs_latch",
                                       [r.defect for r in result.records],
                                       4, key)}
        assert not keys(base) & keys(replay)

    def test_progress_reports_cache_hits(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), namespace="calibration")
        spec = campaign_spec(blocks=["rs_latch"])
        run_study(spec, cache=cache)
        bus, sink = collecting_bus()
        warm = run_study(spec, cache=cache, telemetry=bus)
        terminal = [event for event in sink.events if event.type in TERMINAL]
        assert {event.type for event in terminal} == {"cache_hit"}
        assert len(terminal) == warm.report.n_tasks
        # A batched task reports its defect count as ``items``.
        n_defects = sum(event.data.get("items", 1) for event in terminal
                        if event.task_id.startswith("campaign/"))
        assert n_defects == len(warm.results["rs_latch"].universe)

    def test_engine_report_attached(self):
        outcome = run_study(campaign_spec(blocks=["rs_latch"]))
        result = outcome.results["rs_latch"]
        assert outcome.report is not None
        campaign = outcome.report.stage("campaign")
        assert campaign.completed == math.ceil(result.n_simulated / 32)
        assert campaign.items == result.n_simulated
        assert outcome.report.wall_time > 0
        assert result.block_report("rs_latch").modeled_sim_time > 0
        # Measured time lives on the study's one report and nowhere in the
        # results: no record or stored artifact carries it, so a replayed
        # record is the one its cold run wrote.
        for record in result.records:
            assert [field.name for field in dataclasses.fields(record)] == \
                RECORD_FIELDS
        assert {key for entry in RECORD_CODEC.encode(result.records)
                for key in entry} == set(RECORD_FIELDS)


class TestCalibrationEquivalence:
    def test_residual_pools_identical_across_backends(self):
        spec = calibration_spec(seed=5, n_monte_carlo=6)
        serial = run_study(spec)
        parallel = run_study(spec, backend=SharedMemoryBackend(max_workers=3))
        assert serial.stage_results("calibrate") == \
            parallel.stage_results("calibrate")
        # ... and the study's per-instance rows are the plain loop's pools.
        plain = collect_defect_free_residuals(
            n_monte_carlo=6, rng=np.random.default_rng(5))
        rows = list(serial.stage_results("calibrate").values())
        assert plain == {name: [value for row in rows for value in row[name]]
                         for name in plain}

    def test_calibration_identical_across_backends(self):
        spec = calibration_spec(seed=3, n_monte_carlo=5)
        serial = run_study(spec).calibration
        parallel = run_study(
            spec, backend=SharedMemoryBackend(max_workers=2)).calibration
        assert serial.deltas == parallel.deltas
        assert serial.sigmas == parallel.sigmas
        plain = calibrate_windows(n_monte_carlo=5,
                                  rng=np.random.default_rng(3))
        assert plain.deltas == serial.deltas
        assert plain.sigmas == serial.sigmas

    def test_calibration_cache_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), namespace="calibration")
        cold = run_study(calibration_spec(seed=3, n_monte_carlo=4),
                         cache=cache).calibration
        warm = run_study(calibration_spec(seed=3, n_monte_carlo=4),
                         cache=cache).calibration
        assert cold.deltas == warm.deltas
        assert len(cache) == 4 + 1  # instances + the windows reduction
        # A different root seed must not reuse the artifacts.
        other = run_study(calibration_spec(seed=4, n_monte_carlo=4),
                          cache=cache).calibration
        assert len(cache) == 2 * (4 + 1)
        assert other.deltas != cold.deltas

    def test_untokenable_factory_uncached(self, tmp_path):
        """A factory without a stable token cannot be content-hashed, so the
        study never touches the cache."""
        cache = ResultCache(str(tmp_path / "cache"), namespace="calibration")
        run_study(calibration_spec(seed=0, n_monte_carlo=2), cache=cache,
                  adc_factory=functools.partial(SarAdc))
        assert len(cache) == 0


class TestMonteCarloEquivalence:
    """The ``calibrate`` stage is the study layer's Monte Carlo over
    process-variation samples: one task per instance, seeded up front."""

    @staticmethod
    def _rows(outcome):
        return list(outcome.stage_results("calibrate").values())

    def test_samples_independent_of_sample_count_prefix(self):
        """Per-sample seeds: instance i does not depend on how many
        instances run after it."""
        short = run_study(calibration_spec(seed=7, n_monte_carlo=2))
        long = run_study(calibration_spec(seed=7, n_monte_carlo=4))
        assert self._rows(long)[:2] == self._rows(short)

    def test_cache_prefix_reused_across_sample_counts(self, tmp_path):
        """The instance count is not part of an instance's cache key, so a
        longer calibration replays a shorter one's instances."""
        cache = ResultCache(str(tmp_path / "cache"), namespace="calibration")
        short = run_study(calibration_spec(seed=7, n_monte_carlo=2),
                          cache=cache)
        longer = run_study(calibration_spec(seed=7, n_monte_carlo=4),
                           cache=cache)
        statuses = list(longer.stage_statuses("calibrate").values())
        assert statuses == [STATUS_CACHED] * 2 + [STATUS_EXECUTED] * 2
        assert self._rows(longer)[:2] == self._rows(short)

    def test_variation_spec_partitions_cache(self, tmp_path):
        """A different variation spec must never replay cached samples."""
        from repro.circuit import VariationSpec
        cache = ResultCache(str(tmp_path / "cache"), namespace="calibration")
        spec = calibration_spec(seed=7, n_monte_carlo=3)
        run_study(spec, cache=cache)
        wide = run_study(
            spec, cache=cache,
            variation_spec=VariationSpec(resistor_global_sigma=0.15))
        assert set(wide.stage_statuses("calibrate").values()) == \
            {STATUS_EXECUTED}
        assert len(cache) == 2 * (3 + 1)  # disjoint artifact sets


class TestYieldLossEquivalence:
    def test_sweep_identical_across_backends(self, calibration):
        """The yield stage over the session calibration's own draws (root
        seed 2024, 20 instances) matches the plain sweep point for point."""
        k_values = (2.0, 4.0, 6.0)
        spec = calibration_spec(seed=2024, n_monte_carlo=20,
                                yield_k_values=k_values)
        serial = run_study(spec).yield_points
        parallel = run_study(
            spec, backend=SharedMemoryBackend(max_workers=2)).yield_points
        assert serial == parallel
        assert serial == yield_loss_sweep(calibration, k_values=k_values)

    def test_sweep_cache_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), namespace="calibration")
        spec = calibration_spec(seed=7, n_monte_carlo=MC,
                                yield_k_values=(3.0, 5.0))
        cold = run_study(spec, cache=cache)
        warm = run_study(spec, cache=cache)
        assert cold.yield_points == warm.yield_points
        assert set(warm.stage_statuses("yield").values()) == {STATUS_CACHED}
        assert len(cache) == MC + 1 + 2  # instances, windows, two points
