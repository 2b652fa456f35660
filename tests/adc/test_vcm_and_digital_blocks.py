"""Tests for the Vcm generator and the behavioral digital blocks of the ADC."""

import pytest

from repro.adc import (Bandgap, CYCLES_PER_CONVERSION, N_PULSES, Phase,
                       PhaseGenerator, SarControl, SarLogic, VcmGenerator)
from repro.circuit import SimulationError, VCM_NOMINAL

VBG = Bandgap.VBG_NOMINAL


class TestVcmGenerator:
    def test_nominal_is_half_bandgap(self):
        assert VcmGenerator().evaluate(VBG) == pytest.approx(VBG / 2, abs=2e-3)

    def test_tracks_bandgap_voltage(self):
        gen = VcmGenerator()
        assert gen.evaluate(1.0) == pytest.approx(0.5, abs=2e-3)

    def test_divider_resistor_open_rails_output(self):
        gen = VcmGenerator()
        gen.netlist.device("r_top").defect.open_terminal = "p"
        assert gen.evaluate(VBG) < 0.1

    def test_divider_resistor_deviation_shifts_output(self):
        gen = VcmGenerator()
        gen.netlist.device("r_bot").defect.value_scale = 1.5
        assert gen.evaluate(VBG) > VCM_NOMINAL + 0.05

    def test_decoupling_cap_short_grounds_output(self):
        gen = VcmGenerator()
        gen.netlist.device("c_dec").defect.shorted_terminals = ("p", "n")
        assert gen.evaluate(VBG) == 0.0

    def test_decoupling_cap_open_is_dc_invisible(self):
        """The benign defect class behind the low L-W coverage of this block."""
        gen = VcmGenerator()
        gen.netlist.device("c_dec").defect.open_terminal = "p"
        assert gen.evaluate(VBG) == pytest.approx(VcmGenerator().evaluate(VBG),
                                                  abs=1e-9)

    def test_follower_open_kills_output(self):
        gen = VcmGenerator()
        gen.netlist.device("mp_sf").defect.open_terminal = "s"
        assert gen.evaluate(VBG) == 0.0

    def test_observables(self):
        assert set(VcmGenerator().observables(VBG)) == {"VCM"}


class TestPhaseGenerator:
    def test_cycle_zero_is_sampling(self):
        assert PhaseGenerator().phase_of_cycle(0) is Phase.SAMPLE

    def test_last_cycle_is_capture(self):
        pg = PhaseGenerator()
        assert pg.phase_of_cycle(CYCLES_PER_CONVERSION - 1) is Phase.CAPTURE

    def test_conversion_cycles_are_convert(self):
        pg = PhaseGenerator()
        for cycle in range(1, 11):
            assert pg.phase_of_cycle(cycle) is Phase.CONVERT

    def test_pattern_repeats_across_conversions(self):
        pg = PhaseGenerator()
        assert pg.phase_of_cycle(12) is Phase.SAMPLE
        assert pg.phase_of_cycle(23) is Phase.CAPTURE

    def test_schedule_length(self):
        assert len(PhaseGenerator().schedule(3)) == 3 * CYCLES_PER_CONVERSION


class TestSarControl:
    def test_twelve_pulses(self):
        assert N_PULSES == 12

    def test_one_hot_encoding(self):
        ctrl = SarControl()
        for cycle in range(24):
            pulses = ctrl.pulses_for_cycle(cycle)
            assert sum(pulses) == 1
            assert pulses.index(1) == cycle % 12

    def test_active_pulse_wraps(self):
        ctrl = SarControl()
        assert ctrl.active_pulse(13) == 1

    def test_negative_cycle_rejected(self):
        with pytest.raises(SimulationError):
            SarControl().pulses_for_cycle(-1)


class TestSarLogic:
    def test_binary_search_all_keep(self):
        logic = SarLogic()
        logic.start_conversion()
        while not logic.done:
            logic.apply_decision(1)
        assert logic.result() == 1023

    def test_binary_search_all_clear(self):
        logic = SarLogic()
        logic.start_conversion()
        while not logic.done:
            logic.apply_decision(0)
        assert logic.result() == 0

    def test_trial_code_sets_bit_under_test(self):
        logic = SarLogic()
        logic.start_conversion()
        assert logic.trial_code() == 512
        logic.apply_decision(0)
        assert logic.trial_code() == 256
        logic.apply_decision(1)
        assert logic.trial_code() == 256 + 128

    def test_emulated_threshold_search(self):
        """The SAR loop converges to the target code for an ideal comparator."""
        target = 619
        logic = SarLogic()
        logic.start_conversion()
        while not logic.done:
            logic.apply_decision(1 if logic.trial_code() <= target else 0)
        assert logic.result() == target

    def test_result_before_completion_raises(self):
        logic = SarLogic()
        logic.start_conversion()
        with pytest.raises(SimulationError):
            logic.result()

    def test_decision_after_completion_raises(self):
        logic = SarLogic()
        logic.start_conversion()
        for _ in range(10):
            logic.apply_decision(1)
        with pytest.raises(SimulationError):
            logic.apply_decision(1)

    def test_invalid_decision_rejected(self):
        logic = SarLogic()
        logic.start_conversion()
        with pytest.raises(SimulationError):
            logic.apply_decision(2)

    def test_invalid_bit_count_rejected(self):
        with pytest.raises(SimulationError):
            SarLogic(n_bits=0)
