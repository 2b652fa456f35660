"""Tests for the Monte Carlo window calibration (repro.core.calibration)."""

import numpy as np
import pytest

from repro.adc import SarAdc
from repro.adc.sar_adc import DutAdcFactory
from repro.circuit import CalibrationError
from repro.core import (DEFAULT_DELTA_FLOORS, GENERIC_DELTA_FLOOR,
                        WindowComparator, build_invariances,
                        calibrate_windows, collect_defect_free_residuals)
from repro.core.calibration import _calibration_adc, _residual_worker
from repro.core.stimulus import SymBistStimulus
from repro.dut import default_dut


class TestCalibration:
    def test_calibration_covers_all_invariances(self, calibration):
        names = {"msb_sum", "lsb_sum", "dac_sum", "preamp_cm", "sign",
                 "latch_sum"}
        assert set(calibration.deltas) == names
        assert set(calibration.sigmas) == names

    def test_k_factor_recorded(self, calibration):
        assert calibration.k == 5.0

    def test_deltas_respect_k_sigma_plus_mean(self, calibration):
        for name, delta in calibration.deltas.items():
            floor = DEFAULT_DELTA_FLOORS.get(name, GENERIC_DELTA_FLOOR)
            expected = max(calibration.k * calibration.sigmas[name]
                           + abs(calibration.means[name]), floor)
            assert delta == pytest.approx(expected)

    def test_discrete_invariances_use_floors(self, calibration):
        assert calibration.sigmas["sign"] == 0.0
        assert calibration.deltas["sign"] == DEFAULT_DELTA_FLOORS["sign"]
        assert calibration.deltas["latch_sum"] == DEFAULT_DELTA_FLOORS["latch_sum"]

    def test_continuous_invariances_have_positive_sigma(self, calibration):
        for name in ("msb_sum", "lsb_sum", "dac_sum", "preamp_cm"):
            assert calibration.sigmas[name] > 0.0

    def test_build_checkers(self, calibration):
        checkers = calibration.build_checkers()
        assert len(checkers) == 6
        assert all(isinstance(c, WindowComparator) for c in checkers)

    def test_delta_lookup_raises_for_unknown(self, calibration):
        with pytest.raises(CalibrationError):
            calibration.delta("bogus")

    def test_scaled_rebuilds_windows_without_new_monte_carlo(self, calibration):
        smaller = calibration.scaled(3.0)
        assert smaller.k == 3.0
        assert smaller.deltas["dac_sum"] < calibration.deltas["dac_sum"]
        assert smaller.sigmas == calibration.sigmas

    def test_keep_pools_controls_memory(self, calibration):
        assert calibration.residual_pools  # session fixture keeps pools
        light = calibrate_windows(n_monte_carlo=3,
                                  rng=np.random.default_rng(5))
        assert light.residual_pools == {}

    def test_same_seed_is_reproducible(self):
        cal_a = calibrate_windows(n_monte_carlo=4, rng=np.random.default_rng(9))
        cal_b = calibrate_windows(n_monte_carlo=4, rng=np.random.default_rng(9))
        assert cal_a.deltas == cal_b.deltas

    def test_invalid_arguments_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_windows(n_monte_carlo=0)
        with pytest.raises(CalibrationError):
            calibrate_windows(k=0.0, n_monte_carlo=2)

    def test_custom_floor_override(self):
        cal = calibrate_windows(n_monte_carlo=2, rng=np.random.default_rng(3),
                                delta_floors={"sign": 0.9})
        assert cal.deltas["sign"] == pytest.approx(0.9)


class TestResidualPools:
    def test_pool_sizes(self, calibration):
        for name, pool in calibration.residual_pools.items():
            assert len(pool) == calibration.n_samples * 32

    def test_pools_centered_near_zero(self, calibration):
        for name in ("msb_sum", "lsb_sum", "dac_sum"):
            values = np.asarray(calibration.residual_pools[name])
            assert abs(values.mean()) < 0.02

    def test_collect_requires_positive_samples(self):
        with pytest.raises(CalibrationError):
            collect_defect_free_residuals(n_monte_carlo=0)


# --------------------------------------------------------------- oracle
#: Device variants and Monte Carlo seeds of the calibration oracle.
ORACLE_SEEDS = {
    "default": range(10),
    "8bit": range(10),
    "vdd1.08": range(10),
    "12bit": range(3),
}

ORACLE_DUTS = {
    "default": default_dut(),
    "8bit": default_dut().merged({"resolution_bits": 8}),
    "vdd1.08": default_dut().merged({"vdd": 1.08}),
    "12bit": default_dut().merged({"resolution_bits": 12}),
}


def _oracle_context(dut):
    return {"adc_factory": DutAdcFactory(dut),
            "invariances": build_invariances(),
            "stimulus": SymBistStimulus(input_diff=dut.test_input_diff,
                                        input_cm=dut.common_mode,
                                        counter_bits=dut.half_bits),
            "variation_spec": dut.variation_spec()}


def _per_cycle_reference(context, seed):
    """One Monte Carlo instance the slow way: a freshly built factory ADC,
    one variation draw, and every invariance evaluated cycle by cycle."""
    stimulus = context["stimulus"]
    adc = context["adc_factory"]()
    adc.sample_variation(np.random.default_rng(seed),
                         context["variation_spec"])
    op = adc.operating_point(input_diff=stimulus.input_diff,
                             input_cm=stimulus.input_cm)
    adc.sarcell.comparator.rs_latch.reset_state()
    rows = {inv.name: [] for inv in context["invariances"]}
    for cycle in range(stimulus.n_cycles):
        signals = adc.evaluate_test_cycle(stimulus.code_for_cycle(cycle), op)
        for inv in context["invariances"]:
            rows[inv.name].append(inv.evaluate(signals))
    return rows


class TestGoldenTraceCalibrationOracle:
    def test_reused_adc_matches_fresh_per_cycle_reference(self):
        """The worker's kept, re-varied ADC and its golden-trace residuals
        reproduce a fresh ADC's per-cycle residuals exactly, whatever ran
        on it before: the instances run forward and then reversed, with the
        device variants' factories interleaved."""
        contexts = {name: _oracle_context(dut)
                    for name, dut in ORACLE_DUTS.items()}
        expected = {(name, seed): _per_cycle_reference(contexts[name], seed)
                    for name, seeds in ORACLE_SEEDS.items()
                    for seed in seeds}
        order = [(name, seed) for seed in range(10)
                 for name, seeds in ORACLE_SEEDS.items() if seed in seeds]
        mismatches = [
            (name, seed) for name, seed in order + order[::-1]
            if _residual_worker(contexts[name], None,
                                np.random.default_rng(seed), {})
            != expected[(name, seed)]]
        assert mismatches == []

    def test_one_adc_per_factory(self):
        factory = DutAdcFactory(default_dut().merged({"resolution_bits": 8}))
        adc = _calibration_adc(factory)
        assert _calibration_adc(DutAdcFactory(factory.dut)) is adc
        assert _calibration_adc(DutAdcFactory()) is not adc

    def test_non_clean_factory_adc_is_rejected(self):
        def drawn_adc():
            adc = SarAdc()
            adc.sample_variation(np.random.default_rng(0))
            return adc

        context = dict(_oracle_context(default_dut()),
                       adc_factory=drawn_adc)
        with pytest.raises(CalibrationError, match="clean"):
            _residual_worker(context, None, np.random.default_rng(1), {})
