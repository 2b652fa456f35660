"""Tests for the SymBIST invariance definitions (repro.core.invariance)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import BistConfigurationError, VCM2_NOMINAL, VCM_NOMINAL, VDD
from repro.core import (SIGN_DEADBAND, SIGN_VIOLATION_MAGNITUDE,
                        build_invariances, evaluate_all, invariance_by_name)


def nominal_signals(code_fraction=0.3):
    """A consistent, defect-free signal bundle."""
    vref32 = 1.2
    m_p = code_fraction * vref32
    lin_diff = 0.2
    return {
        "M+": m_p, "M-": vref32 - m_p,
        "L+": m_p, "L-": vref32 - m_p,
        "DAC+": VCM_NOMINAL + 0.1, "DAC-": VCM_NOMINAL - 0.1,
        "LIN+": VCM2_NOMINAL + lin_diff / 2, "LIN-": VCM2_NOMINAL - lin_diff / 2,
        "Q+": VDD, "Q-": 0.0,
        "VREF32": vref32,
    }


class TestStandardSet:
    def test_six_invariances_in_paper_order(self, invariances):
        assert [inv.name for inv in invariances] == [
            "msb_sum", "lsb_sum", "dac_sum", "preamp_cm", "sign", "latch_sum"]

    def test_each_has_equation_reference(self, invariances):
        assert all(inv.paper_equation.startswith("Eq.") for inv in invariances)

    def test_lookup_by_name(self):
        assert invariance_by_name("dac_sum").name == "dac_sum"
        with pytest.raises(BistConfigurationError):
            invariance_by_name("not_an_invariance")

    def test_covered_blocks_span_all_ams_blocks(self, invariances):
        covered = set()
        for inv in invariances:
            covered.update(inv.covered_blocks)
        expected = {"bandgap", "reference_buffer", "subdac1", "subdac2",
                    "sc_array", "vcm_generator", "preamplifier",
                    "comparator_latch", "rs_latch", "offset_compensation"}
        assert expected <= covered


class TestResiduals:
    def test_all_residuals_zero_for_nominal_signals(self, invariances):
        residuals = evaluate_all(invariances, nominal_signals())
        assert all(abs(v) < 1e-9 for v in residuals.values())

    def test_msb_sum_detects_asymmetry(self):
        signals = nominal_signals()
        signals["M+"] += 0.05
        assert invariance_by_name("msb_sum").evaluate(signals) == pytest.approx(0.05)

    def test_dac_sum_detects_common_mode_shift(self):
        signals = nominal_signals()
        signals["DAC+"] += 0.08
        signals["DAC-"] += 0.08
        assert invariance_by_name("dac_sum").evaluate(signals) == pytest.approx(0.16)

    def test_dac_sum_ignores_pure_differential(self):
        signals = nominal_signals()
        signals["DAC+"] += 0.08
        signals["DAC-"] -= 0.08
        assert invariance_by_name("dac_sum").evaluate(signals) == pytest.approx(0.0)

    def test_preamp_cm_detects_railed_output(self):
        signals = nominal_signals()
        signals["LIN+"] = VDD
        assert abs(invariance_by_name("preamp_cm").evaluate(signals)) > 0.1

    def test_latch_sum_detects_both_high(self):
        signals = nominal_signals()
        signals["Q-"] = VDD
        assert invariance_by_name("latch_sum").evaluate(signals) == pytest.approx(VDD)

    def test_sign_consistency_pass(self):
        assert invariance_by_name("sign").evaluate(nominal_signals()) == 0.0

    def test_sign_consistency_violation(self):
        signals = nominal_signals()
        signals["Q+"], signals["Q-"] = 0.0, VDD  # decision opposite to LIN
        value = invariance_by_name("sign").evaluate(signals)
        assert abs(value) == pytest.approx(SIGN_VIOLATION_MAGNITUDE)

    def test_sign_deadband_masks_metastable_cycles(self):
        signals = nominal_signals()
        signals["LIN+"] = VCM2_NOMINAL + SIGN_DEADBAND / 4
        signals["LIN-"] = VCM2_NOMINAL - SIGN_DEADBAND / 4
        signals["Q+"], signals["Q-"] = 0.0, VDD
        assert invariance_by_name("sign").evaluate(signals) == 0.0

    def test_missing_signal_raises(self, invariances):
        with pytest.raises(BistConfigurationError):
            invariances[0].evaluate({"M+": 1.0})

    @given(st.floats(min_value=0.0, max_value=1.2),
           st.floats(min_value=0.0, max_value=1.2))
    @settings(max_examples=50, deadline=None)
    def test_msb_sum_is_symmetric_in_its_arguments(self, a, b):
        """Property: the residual only depends on the sum M+ + M-."""
        signals = nominal_signals()
        signals["M+"], signals["M-"] = a, b
        forward = invariance_by_name("msb_sum").evaluate(signals)
        signals["M+"], signals["M-"] = b, a
        swapped = invariance_by_name("msb_sum").evaluate(signals)
        assert forward == pytest.approx(swapped)


#: Signal levels that hit the sign invariance's edge cases: equal latch
#: outputs, signed zeros and differences at the dead band.
_EDGE_LEVELS = st.sampled_from([0.0, -0.0, 0.01, 0.03, SIGN_DEADBAND,
                                VCM2_NOMINAL, VDD])
_LEVELS = st.floats(min_value=-1.5, max_value=1.5) | _EDGE_LEVELS
_NAMES = ("M+", "M-", "L+", "L-", "DAC+", "DAC-", "LIN+", "LIN-", "Q+", "Q-",
          "VREF32")


@given(cycles=st.lists(st.fixed_dictionaries({name: _LEVELS
                                              for name in _NAMES}),
                       min_size=1, max_size=12))
@settings(max_examples=80, deadline=None)
def test_column_residuals_equal_per_cycle_residuals(cycles):
    """One definition per invariance: evaluated on float64 columns, each
    residual equals the per-cycle value, bit for bit and sign of zero
    included."""
    columns = {name: np.array([signals[name] for signals in cycles])
               for name in _NAMES}
    for inv in build_invariances():
        per_cycle = [inv.evaluate(signals) for signals in cycles]
        column = np.asarray(inv.residual(columns))
        assert column.dtype == np.float64
        assert column.tolist() == per_cycle
        assert np.signbit(column).tolist() == \
            [bool(np.signbit(value)) for value in per_cycle]
