"""Lockstep conversions against the per-cycle scalar reference.

``SarAdc.convert_many`` runs the SAR searches of all its samples in
lockstep, resolving each block's defect and parameter state once per call.
The reference below is the plain per-sample loop it replaced: reset the SAR
register and the RS latch, then one ``SarCell.evaluate`` per bit.  The two
must agree bit for bit -- on the codes and on the SAR register and RS latch
state left behind -- for every injected defect.
"""

import numpy as np
import pytest

from repro.adc import SarAdc, ScArray, ScArrayInputs
from repro.adc.behavioral import effective_capacitance, switch_state
from repro.defects.injection import DefectInjector
from repro.defects.universe import build_defect_universe
from repro.dut import default_dut

#: Device variants, as in the golden-trace oracle, plus a Monte Carlo
#: instance of the paper's device (``None`` marks the varied case).
DUTS = {
    "default": default_dut(),
    "8bit": default_dut().merged({"resolution_bits": 8}),
    "12bit": default_dut().merged({"resolution_bits": 12}),
    "vdd1.08": default_dut().merged({"vdd": 1.08}),
    "monte-carlo": None,
}


def reference_convert_many(adc, input_diffs, input_cm=None):
    """The per-sample, per-cycle conversion loop (the scalar reference)."""
    if input_cm is None:
        input_cm = adc.dut.common_mode
    op = adc.operating_point(input_diff=0.0, input_cm=input_cm)
    half = adc.dut.half_bits
    lsb_mask = adc.dut.counter_codes - 1
    cell = adc.sarcell
    logic = cell.sar_logic
    codes = []
    for diff in input_diffs:
        in_p = input_cm + 0.5 * float(diff)
        in_m = input_cm - 0.5 * float(diff)
        logic.start_conversion()
        cell.comparator.rs_latch.reset_state()
        for _ in range(logic.n_bits):
            trial = logic.trial_code()
            outputs = cell.evaluate(trial >> half, trial & lsb_mask,
                                    in_p, in_m, op.vbg, op.ibias, op.vref)
            logic.apply_decision(1 - outputs.comparator.decision)
        codes.append(logic.result())
    return codes


def stimulus(adc, n_points):
    """``n_points`` of an over-ranged ramp, then ``n_points`` of a sine."""
    low, high = adc.ideal_input_range()
    ramp = np.linspace(1.05 * low, 1.05 * high, n_points + 2)[1:-1]
    sine = 0.9 * high * np.sin(np.linspace(0.3, 2 * np.pi, n_points))
    return list(ramp) + list(sine)


def left_state(adc):
    """The SAR register and RS latch state a conversion leaves behind."""
    logic = adc.sarcell.sar_logic
    return (logic.done, logic.bit_under_test, logic.trial_code(),
            adc.sarcell.comparator.rs_latch._state)


def conversion_mismatches(dut_name, stride, n_points):
    """Defect ids whose lockstep conversion differs from the reference."""
    dut = DUTS[dut_name]
    adc = SarAdc(dut=dut)
    hierarchy = adc.build_hierarchy()
    injector = DefectInjector(hierarchy)
    defects = build_defect_universe(hierarchy).defects[::stride]
    inputs = stimulus(adc, n_points)
    mismatches = []
    for defect in defects:
        with injector.injected(defect):
            if dut is None:
                # Inject first: the draw skips the defective device.
                adc.sample_variation(np.random.default_rng(11))
            expected = reference_convert_many(adc, inputs)
            expected_state = left_state(adc)
            actual = adc.convert_many(inputs)
            if actual != expected or left_state(adc) != expected_state:
                mismatches.append(defect.defect_id)
        if dut is None:
            adc.clear_defects()
            adc.reset_variation()
    return mismatches


class TestLockstepOracle:
    @pytest.mark.parametrize("dut_name", sorted(DUTS))
    def test_every_tenth_defect_matches_the_scalar_loop(self, dut_name):
        assert conversion_mismatches(dut_name, stride=10, n_points=2) == []

    @pytest.mark.slow
    def test_every_defect_matches_the_scalar_loop(self):
        """All 2775 defects of the paper's device."""
        assert conversion_mismatches("default", stride=1, n_points=4) == []

    def test_defect_free_codes_and_left_state(self):
        reference_adc, adc = SarAdc(), SarAdc()
        inputs = stimulus(adc, 16)
        assert adc.convert_many(inputs) == \
            reference_convert_many(reference_adc, inputs)
        assert left_state(adc) == left_state(reference_adc)

    def test_convert_is_the_one_sample_case(self):
        adc = SarAdc()
        inputs = stimulus(adc, 6)
        assert [adc.convert(x) for x in inputs] == adc.convert_many(inputs)

    def test_empty_input_converts_nothing_and_keeps_state(self):
        adc = SarAdc()
        adc.convert(0.1)
        before = left_state(adc)
        assert adc.convert_many([]) == []
        assert left_state(adc) == before


# ------------------------------------------------------------- SC array
def reference_side(sc, side, vin, m_level, l_level, vcm, vref_mid, mismatch):
    """The SC-array charge model with every device state read per call."""
    cs, cs_short = effective_capacitance(sc.netlist.device(f"cs_{side}"))
    cm, cm_short = effective_capacitance(sc.netlist.device(f"cm_{side}"))
    cl, cl_short = effective_capacitance(sc.netlist.device(f"cl_{side}"))
    clamp = lambda value: min(max(value, sc.dut.vss), sc.dut.vdd)
    if cm_short:
        return clamp(m_level)
    if cl_short:
        return clamp(l_level)
    if cs_short:
        return clamp(vcm)
    reset_sw = sc.netlist.device(f"sw_rst_{side}")
    input_sw = sc.netlist.device(f"sw_in_{side}")
    sampled = switch_state(input_sw, nominal_on=True)
    top = vcm if switch_state(reset_sw, nominal_on=True) else 0.0
    sample_bottom = vin if sampled else vcm
    convert_bottom = vin if switch_state(input_sw, nominal_on=False) else vcm
    if not sampled:
        sample_bottom = convert_bottom
    c_total = cs + cm + cl
    if c_total <= 0.0:
        return 0.0
    delta_q = (cs * (convert_bottom - sample_bottom)
               + cm * (m_level - vref_mid) + cl * (l_level - vref_mid))
    top = top + delta_q / c_total + mismatch
    if switch_state(reset_sw, nominal_on=False):
        top = vcm + 0.3 * (top - vcm)
    return clamp(top)


def sc_inputs(adc):
    """SC-array inputs of every counter code at three input levels."""
    op = adc.operating_point(input_diff=0.0)
    vref, top = op.vref, adc.dut.counter_codes
    return [ScArrayInputs(in_p=op.in_p + 0.5 * diff, in_m=op.in_m - 0.5 * diff,
                          m_p=vref[code], m_m=vref[top - code],
                          l_p=vref[top - code], l_m=vref[code],
                          vcm=adc.dut.common_mode,
                          vref_mid=vref[adc.dut.mid_tap])
            for diff in (-0.4, 0.0, 0.3) for code in range(top)]


class TestScArraySweep:
    def test_sweep_matches_evaluate_and_reference_for_every_defect(self):
        adc = SarAdc()
        sc = adc.sarcell.dac.sc_array
        sc.set_parameter("mismatch_p", 1.5e-4)
        sc.set_parameter("mismatch_n", -0.7e-4)
        hierarchy = adc.build_hierarchy()
        injector = DefectInjector(hierarchy)
        defects = build_defect_universe(hierarchy,
                                        blocks=["sc_array"]).defects
        assert defects
        inputs = sc_inputs(adc)
        for defect in [None] + defects:
            if defect is not None:
                injector.inject(defect)
            swept = sc.sweep(inputs)
            assert swept == [sc.evaluate(x) for x in inputs]
            assert [(out.dac_p, out.dac_m) for out in swept] == [
                (reference_side(sc, "p", x.in_p, x.m_p, x.l_p, x.vcm,
                                x.vref_mid, 1.5e-4),
                 reference_side(sc, "n", x.in_m, x.m_m, x.l_m, x.vcm,
                                x.vref_mid, -0.7e-4))
                for x in inputs]
            injector.remove()

    def test_empty_sweep(self):
        assert ScArray().sweep([]) == []
