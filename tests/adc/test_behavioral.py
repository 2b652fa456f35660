"""Tests for the defect-to-behaviour mapping helpers (repro.adc.behavioral)."""

import pytest

from repro.adc import (MosState, PassiveState, StageEffect, combine_effects,
                       diff_stage_effect, effective_capacitance,
                       effective_resistance, mos_state, passive_state,
                       switch_state)
from repro.circuit import (DefectError, PullDirection, capacitor, nmos, pmos,
                           resistor, switch, VDD)


class TestMosState:
    def test_clean_device_is_normal(self):
        assert mos_state(nmos("m", "d", "g", "s")) is MosState.NORMAL

    def test_drain_source_short_is_stuck_on(self):
        dev = nmos("m", "d", "g", "s")
        dev.defect.shorted_terminals = ("d", "s")
        assert mos_state(dev) is MosState.STUCK_ON

    def test_gate_source_short_is_stuck_off(self):
        dev = pmos("m", "d", "g", "s")
        dev.defect.shorted_terminals = ("g", "s")
        assert mos_state(dev) is MosState.STUCK_OFF

    def test_gate_drain_short_is_degraded(self):
        dev = nmos("m", "d", "g", "s")
        dev.defect.shorted_terminals = ("g", "d")
        assert mos_state(dev) is MosState.DEGRADED

    def test_drain_open_is_stuck_off(self):
        dev = nmos("m", "d", "g", "s")
        dev.defect.open_terminal = "d"
        assert mos_state(dev) is MosState.STUCK_OFF

    def test_gate_open_follows_pull_direction(self):
        dev = nmos("m", "d", "g", "s")
        dev.defect.open_terminal = "g"
        dev.defect.open_pull = PullDirection.UP
        assert mos_state(dev) is MosState.STUCK_ON
        dev.defect.open_pull = PullDirection.DOWN
        assert mos_state(dev) is MosState.STUCK_OFF

    def test_pmos_gate_open_pull_up_is_stuck_off(self):
        dev = pmos("m", "d", "g", "s")
        dev.defect.open_terminal = "g"
        dev.defect.open_pull = PullDirection.UP
        assert mos_state(dev) is MosState.STUCK_OFF

    def test_bulk_open_is_degraded(self):
        dev = nmos("m", "d", "g", "s")
        dev.defect.open_terminal = "b"
        assert mos_state(dev) is MosState.DEGRADED

    def test_wrong_device_kind_rejected(self):
        with pytest.raises(DefectError):
            mos_state(resistor("r", "a", "b", 1.0))


class TestSwitchState:
    def test_clean_switch_follows_control(self):
        dev = switch("s", "a", "b", "en")
        assert switch_state(dev, nominal_on=True) is True
        assert switch_state(dev, nominal_on=False) is False

    def test_terminal_short_always_on(self):
        dev = switch("s", "a", "b", "en")
        dev.defect.shorted_terminals = ("p", "n")
        assert switch_state(dev, nominal_on=False) is True

    def test_terminal_open_always_off(self):
        dev = switch("s", "a", "b", "en")
        dev.defect.open_terminal = "n"
        assert switch_state(dev, nominal_on=True) is False

    def test_control_short_treated_as_on(self):
        dev = switch("s", "a", "b", "en")
        dev.defect.shorted_terminals = ("p", "ctrl")
        assert switch_state(dev, nominal_on=False) is True

    def test_control_open_without_pull_is_off(self):
        dev = switch("s", "a", "b", "en")
        dev.defect.open_terminal = "ctrl"
        assert switch_state(dev, nominal_on=True) is False

    def test_mos_used_as_switch(self):
        dev = nmos("m", "d", "g", "s")
        dev.defect.shorted_terminals = ("d", "s")
        assert switch_state(dev, nominal_on=False) is True

    def test_wrong_kind_rejected(self):
        with pytest.raises(DefectError):
            switch_state(capacitor("c", "a", "b", 1e-12), True)


class TestPassiveState:
    def test_clean_value(self):
        state, value = passive_state(resistor("r", "a", "b", 100.0))
        assert state is PassiveState.VALUE
        assert value == pytest.approx(100.0)

    def test_deviation_scales_value(self):
        dev = resistor("r", "a", "b", 100.0)
        dev.defect.value_scale = 0.5
        assert passive_state(dev)[1] == pytest.approx(50.0)

    def test_short_and_open(self):
        dev = capacitor("c", "a", "b", 1e-12)
        dev.defect.shorted_terminals = ("p", "n")
        assert passive_state(dev)[0] is PassiveState.SHORTED
        dev.clear_defect()
        dev.defect.open_terminal = "p"
        assert passive_state(dev)[0] is PassiveState.OPEN

    def test_effective_resistance_of_short(self):
        dev = resistor("r", "a", "b", 1e6)
        dev.defect.shorted_terminals = ("p", "n")
        assert effective_resistance(dev) == pytest.approx(10.0)

    def test_effective_capacitance_of_open_is_zero(self):
        dev = capacitor("c", "a", "b", 1e-12)
        dev.defect.open_terminal = "n"
        value, shorted = effective_capacitance(dev)
        assert value == 0.0 and shorted is False

    def test_effective_capacitance_of_short_flags_plates(self):
        dev = capacitor("c", "a", "b", 1e-12)
        dev.defect.shorted_terminals = ("p", "n")
        _, shorted = effective_capacitance(dev)
        assert shorted is True

    def test_wrong_kind_rejected(self):
        with pytest.raises(DefectError):
            passive_state(nmos("m", "d", "g", "s"))


class TestStageEffect:
    def test_nominal_effect_is_identity(self):
        effect = StageEffect(gain_scale=0.5, offset=0.1, stuck_negative=0.2)
        assert StageEffect().combine(effect) == effect
        assert effect.combine(StageEffect()) == effect

    def test_combine_multiplies_gains_and_adds_offsets(self):
        total = StageEffect(gain_scale=0.5, offset=0.1).combine(
            StageEffect(gain_scale=0.5, offset=0.2))
        assert total.gain_scale == pytest.approx(0.25)
        assert total.offset == pytest.approx(0.3)

    def test_combine_keeps_latest_stuck_value(self):
        total = StageEffect(stuck_positive=0.1).combine(
            StageEffect(stuck_positive=0.9))
        assert total.stuck_positive == pytest.approx(0.9)

    def test_combine_effects_helper(self):
        total = combine_effects([StageEffect(gain_scale=0.5),
                                 StageEffect(cm_shift=0.1)])
        assert total.gain_scale == pytest.approx(0.5)
        assert total.cm_shift == pytest.approx(0.1)


class TestDiffStageEffect:
    def test_unknown_role_rejected(self):
        with pytest.raises(DefectError):
            diff_stage_effect("driver", nmos("m", "d", "g", "s"))

    def test_clean_device_has_no_effect(self):
        effect = diff_stage_effect("tail", nmos("m", "d", "g", "s"))
        assert effect == StageEffect()

    def test_tail_stuck_off_rails_both_outputs(self):
        dev = nmos("m", "d", "g", "s")
        dev.defect.open_terminal = "d"
        effect = diff_stage_effect("tail", dev)
        assert effect.stuck_positive == pytest.approx(VDD)
        assert effect.stuck_negative == pytest.approx(VDD)
        assert effect.bias_scale == 0.0

    def test_input_stuck_off_rails_its_output(self):
        dev = nmos("m", "d", "g", "s")
        dev.defect.open_terminal = "s"
        effect = diff_stage_effect("input_pos", dev)
        assert effect.stuck_positive == pytest.approx(VDD)
        assert effect.stuck_negative is None

    def test_input_drain_bulk_short_pins_output_low(self):
        dev = nmos("m", "d", "g", "s")
        dev.defect.shorted_terminals = ("d", "b")
        effect = diff_stage_effect("input_neg", dev)
        assert effect.stuck_negative == pytest.approx(0.0)

    def test_source_bulk_short_on_load_is_benign(self):
        dev = pmos("m", "d", "g", "s")
        dev.defect.shorted_terminals = ("s", "b")
        assert diff_stage_effect("load_pos", dev) == StageEffect()

    def test_severity_scales_offsets(self):
        dev = nmos("m", "d", "g", "s")
        dev.defect.shorted_terminals = ("d", "s")
        weak = diff_stage_effect("input_pos", dev, severity=0.5)
        strong = diff_stage_effect("input_pos", dev, severity=1.0)
        assert abs(strong.offset) > abs(weak.offset)
