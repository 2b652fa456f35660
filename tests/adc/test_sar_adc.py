"""Tests for the top-level SAR ADC IP model (repro.adc.sar_adc)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adc import DEFAULT_TEST_INPUT_DIFF, SarAdc, TenBitDac, split_code
from repro.circuit import SimulationError, VCM_NOMINAL, VDD


class TestStructure:
    def test_table1_block_order(self, adc):
        paths = [blk.block_path for blk in adc.analog_blocks]
        assert paths == ["bandgap", "reference_buffer", "subdac1", "subdac2",
                         "sc_array", "vcm_generator", "preamplifier",
                         "comparator_latch", "rs_latch", "offset_compensation"]

    def test_block_lookup(self, adc):
        assert adc.block("sc_array").block_path == "sc_array"
        with pytest.raises(SimulationError):
            adc.block("unknown_block")

    def test_hierarchy_registers_all_blocks(self, adc):
        hierarchy = adc.build_hierarchy()
        assert len(hierarchy) == 10
        assert hierarchy.device_count() == sum(len(b.netlist)
                                               for b in adc.analog_blocks)

    def test_split_code(self):
        assert split_code(0) == (0, 0)
        assert split_code(1023) == (31, 31)
        assert split_code(32 * 7 + 5) == (7, 5)
        with pytest.raises(SimulationError):
            split_code(1024)

    def test_dac_blocks_property(self):
        dac = TenBitDac()
        assert len(dac.blocks) == 3


class TestOperatingPoint:
    def test_nominal_operating_point(self, adc):
        op = adc.operating_point()
        assert op.vbg == pytest.approx(1.2, abs=0.01)
        assert op.vref_full_scale == pytest.approx(1.2, abs=0.01)
        assert len(op.vref) == 33
        assert op.in_p - op.in_m == pytest.approx(DEFAULT_TEST_INPUT_DIFF)

    def test_input_common_mode_default(self, adc):
        op = adc.operating_point(input_diff=0.2)
        assert 0.5 * (op.in_p + op.in_m) == pytest.approx(VCM_NOMINAL)


class TestSymBistMode:
    def test_signals_present(self, adc):
        signals = adc.evaluate_test_cycle(5)
        for name in ("M+", "M-", "L+", "L-", "DAC+", "DAC-", "LIN+", "LIN-",
                     "Q+", "Q-", "QL+", "QL-", "VCM", "VREF32", "VREF16",
                     "VBG", "IBIAS", "IN+", "IN-", "VDD"):
            assert name in signals

    def test_invalid_counter_code_rejected(self, adc):
        with pytest.raises(SimulationError):
            adc.evaluate_test_cycle(32)

    def test_invariances_hold_at_every_code(self, adc):
        op = adc.operating_point()
        for code in range(32):
            s = adc.evaluate_test_cycle(code, op)
            assert s["M+"] + s["M-"] == pytest.approx(s["VREF32"], abs=1e-6)
            assert s["L+"] + s["L-"] == pytest.approx(s["VREF32"], abs=1e-6)
            # The DAC common mode tracks the generated Vcm up to the tiny
            # difference between the externally applied input common mode and
            # the on-chip Vcm (well inside the comparison window).
            assert s["DAC+"] + s["DAC-"] == pytest.approx(2 * s["VCM"], abs=1e-3)
            assert s["Q+"] + s["Q-"] == pytest.approx(VDD, abs=1e-9)

    def test_both_subdacs_get_same_code(self, adc):
        op = adc.operating_point()
        s = adc.evaluate_test_cycle(9, op)
        assert s["M+"] == pytest.approx(op.vref[9], abs=1e-3)
        assert s["L+"] == pytest.approx(op.vref[9], abs=1e-3)


class TestConversion:
    def test_zero_input_gives_mid_code(self, adc):
        assert adc.convert(0.0) == 528

    def test_known_input_levels(self, adc):
        # code = 528 + input / (VFS/528)
        assert adc.convert(0.3) in (659, 660, 661)
        assert adc.convert(-0.5) in (307, 308, 309)

    def test_transfer_is_monotonic(self, adc):
        codes = adc.convert_many(np.linspace(-1.0, 0.9, 40))
        assert all(b >= a for a, b in zip(codes, codes[1:]))

    def test_extreme_inputs_saturate(self, adc):
        low, high = adc.ideal_input_range()
        assert adc.convert(low * 1.2) == 0
        assert adc.convert(high * 1.2) == 1023

    def test_code_to_input_round_trip(self, adc):
        for code in (100, 528, 900):
            level = adc.code_to_input(code)
            assert abs(adc.convert(level) - code) <= 1

    def test_code_to_input_range_check(self, adc):
        with pytest.raises(SimulationError):
            adc.code_to_input(1024)

    @given(st.integers(min_value=5, max_value=1018))
    @settings(max_examples=25, deadline=None)
    def test_conversion_matches_ideal_quantiser(self, code):
        """Property: converting the ideal level of a code returns that code
        (within one LSB of decision ambiguity)."""
        adc = SarAdc()
        level = adc.code_to_input(code) + 0.25 * (adc.code_to_input(code + 1)
                                                  - adc.code_to_input(code))
        assert abs(adc.convert(level) - code) <= 1


class TestDefectAndVariationManagement:
    def test_clear_defects_across_blocks(self, adc):
        adc.bandgap.netlist.device("r1").defect.value_scale = 1.5
        adc.sarcell.dac.sc_array.netlist.device("cm_p").defect.open_terminal = "p"
        assert adc.has_defect
        adc.clear_defects()
        assert not adc.has_defect

    def test_sample_variation_changes_behaviour(self, adc, rng):
        nominal = adc.evaluate_test_cycle(10)["DAC+"]
        adc.sample_variation(rng)
        varied = adc.evaluate_test_cycle(10)["DAC+"]
        assert varied != pytest.approx(nominal, abs=1e-12)

    def test_reset_variation_restores_a_fresh_adc(self, adc):
        """A drawn then reset ADC is the nominal device again -- clean
        netlists and a fresh ADC's fingerprint -- so re-varying it draws
        exactly what a freshly built ADC draws."""
        from repro.defects.simulator import adc_fingerprint

        def fingerprint(device):
            return adc_fingerprint(device, device.build_hierarchy())

        adc.sample_variation(np.random.default_rng(3))
        assert adc.has_defect  # drawn passive value scales
        adc.reset_variation()
        assert not adc.has_defect
        assert fingerprint(adc) == fingerprint(SarAdc())

        fresh = SarAdc()
        adc.sample_variation(np.random.default_rng(4))
        fresh.sample_variation(np.random.default_rng(4))
        assert fingerprint(adc) == fingerprint(fresh)

    def test_defective_adc_still_converts(self, adc):
        adc.sarcell.dac.subdac1.netlist.device("swp_16").defect.open_terminal = "p"
        code = adc.convert(0.0)
        assert 0 <= code <= 1023
