"""Tests for the yield-loss model."""

import numpy as np
import pytest

from repro.adc.sar_adc import DutAdcFactory
from repro.analysis import (analytic_yield_loss, empirical_yield_loss,
                            proportion_ci, yield_loss_sweep)
from repro.circuit import CalibrationError
from repro.core import SymBistStimulus, WindowCalibration, calibrate_windows
from repro.dut import DutSpec


class TestAnalyticYieldLoss:
    def test_k5_yield_loss_is_negligible(self):
        """Paper Section VI: k = 5 guarantees negligible yield loss."""
        point = analytic_yield_loss(5.0)
        assert point.analytic_per_run < 1e-5
        assert point.analytic_ppm < 10.0

    def test_small_k_costs_yield(self):
        assert analytic_yield_loss(2.0).analytic_per_run > 0.05

    def test_monotone_in_k(self):
        losses = [analytic_yield_loss(k).analytic_per_run
                  for k in (2.0, 3.0, 4.0, 5.0, 6.0)]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_uncorrelated_variant_is_upper_bound(self):
        corr = analytic_yield_loss(4.0, correlated_within_run=True)
        uncorr = analytic_yield_loss(4.0, correlated_within_run=False)
        assert uncorr.analytic_per_run >= corr.analytic_per_run

    def test_invalid_k_rejected(self):
        with pytest.raises(CalibrationError):
            analytic_yield_loss(0.0)


class TestEmpiricalYieldLoss:
    def test_requires_residual_pools(self):
        light = calibrate_windows(n_monte_carlo=2, rng=np.random.default_rng(0))
        with pytest.raises(CalibrationError):
            empirical_yield_loss(light, 5.0)

    def test_k5_rarely_fails_defect_free_instances(self, calibration):
        point = empirical_yield_loss(calibration, 5.0)
        assert point.empirical == 0.0
        assert point.empirical_ci_half_width is not None

    def test_tiny_k_fails_most_instances(self, calibration):
        point = empirical_yield_loss(calibration, 0.2)
        assert point.empirical > 0.4

    def test_sweep_combines_analytic_and_empirical(self, calibration):
        points = yield_loss_sweep(calibration, k_values=(2.0, 5.0))
        assert len(points) == 2
        assert points[0].empirical is not None
        assert points[0].analytic_per_run > points[1].analytic_per_run

    def test_sweep_without_calibration_is_analytic_only(self):
        points = yield_loss_sweep(None, k_values=(3.0, 5.0))
        assert all(p.empirical is None for p in points)

    def test_sweep_is_the_per_k_estimators(self, calibration):
        k_values = (2.0, 4.0, 6.0)
        assert yield_loss_sweep(calibration, k_values=k_values) == \
            [empirical_yield_loss(calibration, k) for k in k_values]
        assert yield_loss_sweep(None, k_values=k_values) == \
            [analytic_yield_loss(k) for k in k_values]


class TestYieldRunLength:
    """One run per Monte Carlo instance, whatever the device's cycle count."""

    @staticmethod
    def _calibration(resolution_bits, n_monte_carlo):
        dut = DutSpec(resolution_bits=resolution_bits)
        stimulus = SymBistStimulus(input_diff=dut.test_input_diff,
                                   input_cm=dut.common_mode,
                                   counter_bits=dut.half_bits)
        return calibrate_windows(
            adc_factory=DutAdcFactory(dut), stimulus=stimulus,
            n_monte_carlo=n_monte_carlo, rng=np.random.default_rng(7),
            variation_spec=dut.variation_spec(), keep_pools=True)

    def test_8bit_calibration_counts_every_instance(self):
        """An 8-bit DUT runs 16 SymBIST cycles: 4 instances are 4 runs."""
        calibration = self._calibration(8, 4)
        assert len(calibration.residual_pools["msb_sum"]) == 4 * 16
        point = empirical_yield_loss(calibration, 5.0)
        failures = round(point.empirical * 4)
        assert point.empirical == failures / 4
        assert point.empirical_ci_half_width == \
            proportion_ci(failures, 4)[1]

    def test_pools_that_do_not_split_into_runs_are_rejected(self,
                                                            calibration):
        broken = WindowCalibration(
            k=calibration.k, n_samples=calibration.n_samples + 1,
            sigmas=calibration.sigmas, means=calibration.means,
            deltas=calibration.deltas,
            residual_pools=calibration.residual_pools)
        with pytest.raises(CalibrationError, match="per-instance runs"):
            empirical_yield_loss(broken, 5.0)
