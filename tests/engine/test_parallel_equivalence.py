"""Serial-vs-parallel bit-identity and cache behaviour of the drivers.

These tests pin the engine's core guarantee at the workload level: a defect
campaign, a window calibration or a Monte Carlo run sharded across a process
pool produces results byte-identical to the serial run, and a warm cache
replays them near-instantly.
"""

import numpy as np
import pytest

from repro.adc import SarAdc
from repro.analysis import MonteCarloRunner, yield_loss_sweep
from repro.core import calibrate_windows, collect_defect_free_residuals
from repro.defects import DefectCampaign, SamplingPlan
from repro.engine import ResultCache, SerialBackend, SharedMemoryBackend


def record_key(result):
    """Everything that matters about a campaign, as comparable tuples."""
    return [(r.defect.defect_id, r.detected, r.detecting_invariance,
             r.detection_cycle, r.cycles_run, r.modeled_sim_time)
            for r in result.records]


def vbg_evaluate(adc, index):
    """Module-level Monte Carlo evaluation (picklable for the pool)."""
    return adc.operating_point().vbg


def vdd_evaluate(adc, index):
    """A second module-level evaluation with its own cache identity."""
    return adc.operating_point().vbg * 2.0


def numpy_evaluate(adc, index):
    """Evaluation returning a non-JSON numpy scalar (needs a codec)."""
    import numpy
    return numpy.float64(adc.operating_point().vbg)


class TestCampaignEquivalence:
    def test_exhaustive_block_campaign_identical(self, campaign):
        serial = campaign.run(SamplingPlan(exhaustive=True),
                              blocks=["vcm_generator"])
        parallel = campaign.run(SamplingPlan(exhaustive=True),
                                blocks=["vcm_generator"],
                                backend=SharedMemoryBackend(max_workers=2))
        assert record_key(parallel) == record_key(serial)

    def test_lwrs_campaign_100_defects_4_workers_identical(self, campaign):
        """Acceptance criterion: >=100 LWRS defects, 4 workers, identical."""
        plan = SamplingPlan(exhaustive=False, n_samples=100)
        serial = campaign.run(plan, rng=np.random.default_rng(11))
        parallel = campaign.run(plan, rng=np.random.default_rng(11),
                                backend=SharedMemoryBackend(max_workers=4))
        assert serial.n_simulated == 100
        assert record_key(parallel) == record_key(serial)
        assert parallel.overall_report().coverage.value == \
            serial.overall_report().coverage.value
        assert parallel.engine_report.workers == 4

    def test_warm_cache_replays_identically_and_fast(self, campaign, tmp_path):
        """Acceptance criterion: warm rerun <10% of the cold wall-clock."""
        cache = ResultCache(str(tmp_path / "cache"), namespace="defects")
        plan = SamplingPlan(exhaustive=False, n_samples=100)
        cold = campaign.run(plan, rng=np.random.default_rng(11), cache=cache)
        warm = campaign.run(plan, rng=np.random.default_rng(11), cache=cache)
        assert record_key(warm) == record_key(cold)
        assert warm.engine_report.n_cache_hits == 100
        assert warm.engine_report.n_executed == 0
        assert warm.engine_report.wall_time < \
            0.1 * cold.engine_report.wall_time

    def test_cache_invalidated_by_spec_change(self, deltas, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), namespace="defects")
        stop = DefectCampaign(adc=SarAdc(), deltas=deltas,
                              stop_on_detection=True)
        full = DefectCampaign(adc=SarAdc(), deltas=deltas,
                              stop_on_detection=False)
        first = stop.run(SamplingPlan(exhaustive=True),
                         blocks=["vcm_generator"], cache=cache)
        second = full.run(SamplingPlan(exhaustive=True),
                          blocks=["vcm_generator"], cache=cache)
        # stop_on_detection is part of the task spec: nothing may be reused.
        assert second.engine_report.n_cache_hits == 0
        assert any(f.cycles_run < s.cycles_run
                   for f, s in zip(first.records, second.records)
                   if f.detected)

    def test_cache_keyed_on_current_adc_state(self, deltas, tmp_path):
        """Mutating the IP after construction must invalidate cache keys."""
        cache = ResultCache(str(tmp_path / "cache"), namespace="defects")
        adc = SarAdc()
        campaign = DefectCampaign(adc=adc, deltas=deltas)
        pristine = campaign.run(SamplingPlan(exhaustive=True),
                                blocks=["rs_latch"], cache=cache)
        adc.sample_variation(np.random.default_rng(0), None)
        varied = campaign.run(SamplingPlan(exhaustive=True),
                              blocks=["rs_latch"], cache=cache)
        assert pristine.engine_report.n_cache_hits == 0
        assert varied.engine_report.n_cache_hits == 0

    def test_likelihood_model_partitions_cache(self, deltas, tmp_path):
        """Cached records carry defect likelihoods, so campaigns under
        different likelihood models must never share artifacts."""
        from repro.defects import DefectKind, LikelihoodModel
        cache = ResultCache(str(tmp_path / "cache"), namespace="defects")
        default = DefectCampaign(adc=SarAdc(), deltas=deltas)
        skewed = DefectCampaign(
            adc=SarAdc(), deltas=deltas,
            likelihood_model=LikelihoodModel(block_scale={"rs_latch": 7.0}))
        base = default.run(SamplingPlan(exhaustive=True), blocks=["rs_latch"],
                           cache=cache)
        replay = skewed.run(SamplingPlan(exhaustive=True), blocks=["rs_latch"],
                            cache=cache)
        assert replay.engine_report.n_cache_hits == 0
        # The skewed campaign's records must carry its own (7x) priors.
        for base_rec, skew_rec in zip(base.records, replay.records):
            assert skew_rec.defect.likelihood == \
                pytest.approx(7.0 * base_rec.defect.likelihood)

    def test_progress_reports_cache_hits(self, campaign, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), namespace="defects")
        campaign.run(SamplingPlan(exhaustive=True), blocks=["rs_latch"],
                     cache=cache)
        seen = []
        campaign.run(SamplingPlan(exhaustive=True), blocks=["rs_latch"],
                     cache=cache,
                     progress=lambda i, n, rec: seen.append((i, n)))
        universe_size = len(campaign.universe.by_block("rs_latch"))
        assert len(seen) == universe_size
        assert seen[-1][1] == universe_size

    def test_engine_report_attached(self, campaign):
        result = campaign.run(SamplingPlan(exhaustive=True),
                              blocks=["rs_latch"])
        assert result.engine_report is not None
        assert result.engine_report.n_tasks == result.n_simulated
        timing = result.timing_summary()
        assert timing["wall_time"] > 0
        assert timing["modeled_sim_time"] > 0
        assert "engine_wall_time" in timing


class TestCalibrationEquivalence:
    def test_residual_pools_identical_across_backends(self):
        serial = collect_defect_free_residuals(
            n_monte_carlo=6, rng=np.random.default_rng(5))
        parallel = collect_defect_free_residuals(
            n_monte_carlo=6, rng=np.random.default_rng(5),
            backend=SharedMemoryBackend(max_workers=3))
        assert serial == parallel

    def test_calibration_identical_across_backends(self):
        serial = calibrate_windows(n_monte_carlo=5,
                                   rng=np.random.default_rng(3))
        parallel = calibrate_windows(n_monte_carlo=5,
                                     rng=np.random.default_rng(3),
                                     backend=SharedMemoryBackend(max_workers=2))
        assert serial.deltas == parallel.deltas
        assert serial.sigmas == parallel.sigmas

    def test_calibration_cache_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), namespace="calibration")
        cold = calibrate_windows(n_monte_carlo=4,
                                 rng=np.random.default_rng(3), cache=cache)
        warm = calibrate_windows(n_monte_carlo=4,
                                 rng=np.random.default_rng(3), cache=cache)
        assert cold.deltas == warm.deltas
        assert len(cache) == 4
        # A different rng seed must not reuse the artifacts.
        other = calibrate_windows(n_monte_carlo=4,
                                  rng=np.random.default_rng(4), cache=cache)
        assert len(cache) == 8
        assert other.deltas != cold.deltas

    def test_custom_invariances_never_cached(self, tmp_path, invariances):
        cache = ResultCache(str(tmp_path / "cache"), namespace="calibration")
        collect_defect_free_residuals(invariances=list(invariances),
                                      n_monte_carlo=2,
                                      rng=np.random.default_rng(0),
                                      cache=cache)
        assert len(cache) == 0


class TestMonteCarloEquivalence:
    def test_samples_independent_of_backend(self):
        serial = MonteCarloRunner(seed=7).run(vbg_evaluate, 8)
        parallel = MonteCarloRunner(
            seed=7, backend=SharedMemoryBackend(max_workers=2)).run(
            vbg_evaluate, 8)
        assert serial.samples == parallel.samples
        assert parallel.engine_report.backend == "shm"

    def test_samples_independent_of_sample_count_prefix(self):
        """Per-sample SeedSequence children: sample i does not depend on how
        many samples run before or after it."""
        short = MonteCarloRunner(seed=7).run(vbg_evaluate, 4)
        long = MonteCarloRunner(seed=7).run(vbg_evaluate, 8)
        assert long.samples[:4] == short.samples

    def test_cached_run_with_spec(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), namespace="mc")
        runner = MonteCarloRunner(seed=7, cache=cache)
        cold = runner.run(vbg_evaluate, 5, spec={"metric": "vbg"})
        warm = runner.run(vbg_evaluate, 5, spec={"metric": "vbg"})
        assert cold.samples == warm.samples
        assert warm.engine_report.n_cache_hits == 5

    def test_cache_prefix_reused_across_sample_counts(self, tmp_path):
        """Per-sample seeding: a longer run reuses a shorter run's prefix."""
        cache = ResultCache(str(tmp_path / "cache"), namespace="mc")
        runner = MonteCarloRunner(seed=7, cache=cache)
        short = runner.run(vbg_evaluate, 4, spec={"metric": "vbg"})
        longer = runner.run(vbg_evaluate, 8, spec={"metric": "vbg"})
        assert longer.engine_report.n_cache_hits == 4
        assert longer.samples[:4] == short.samples

    def test_evaluate_identity_partitions_cache(self, tmp_path):
        """Two evaluations sharing a user spec must not share artifacts."""
        cache = ResultCache(str(tmp_path / "cache"), namespace="mc")
        runner = MonteCarloRunner(seed=7, cache=cache)
        runner.run(vbg_evaluate, 3, spec={"metric": "shared"})
        second = runner.run(vdd_evaluate, 3, spec={"metric": "shared"})
        assert second.engine_report.n_cache_hits == 0
        assert len(cache) == 6

    def test_codec_enables_caching_non_json_samples(self, tmp_path):
        import numpy
        from repro.engine import ResultCodec
        cache = ResultCache(str(tmp_path / "cache"), namespace="mc")
        codec = ResultCodec(encode=float, decode=numpy.float64)
        runner = MonteCarloRunner(seed=7, cache=cache)
        cold = runner.run(numpy_evaluate, 3, spec={"metric": "vbg"},
                          codec=codec)
        warm = runner.run(numpy_evaluate, 3, spec={"metric": "vbg"},
                          codec=codec)
        assert warm.engine_report.n_cache_hits == 3
        assert [float(s) for s in warm.samples] == \
            [float(s) for s in cold.samples]

    def test_variation_spec_partitions_cache(self, tmp_path):
        """A different variation spec must never replay cached samples."""
        from repro.circuit import VariationSpec
        cache = ResultCache(str(tmp_path / "cache"), namespace="mc")
        nominal = MonteCarloRunner(seed=7, cache=cache)
        wide = MonteCarloRunner(
            seed=7, cache=cache,
            variation_spec=VariationSpec(resistor_global_sigma=0.15))
        nominal.run(vbg_evaluate, 3, spec={"metric": "vbg"})
        second = wide.run(vbg_evaluate, 3, spec={"metric": "vbg"})
        assert second.engine_report.n_cache_hits == 0
        assert len(cache) == 6  # disjoint artifact sets, nothing shared


class TestYieldLossEquivalence:
    def test_sweep_identical_across_backends(self, calibration):
        k_values = (2.0, 4.0, 6.0)
        serial = yield_loss_sweep(calibration, k_values=k_values)
        parallel = yield_loss_sweep(calibration, k_values=k_values,
                                    backend=SharedMemoryBackend(max_workers=2))
        assert serial == parallel

    def test_sweep_cache_round_trip(self, calibration, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), namespace="yield")
        cold = yield_loss_sweep(calibration, k_values=(3.0, 5.0), cache=cache)
        warm = yield_loss_sweep(calibration, k_values=(3.0, 5.0), cache=cache)
        assert cold == warm
        assert len(cache) == 2
