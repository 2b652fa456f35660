"""Tests for the 5-bit sub-DACs (repro.adc.subdac)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adc import (Bandgap, ReferenceBuffer, SarAdc, SubDac, make_subdac1,
                       make_subdac2, switch_state)
from repro.circuit import SimulationError
from repro.defects.injection import DefectInjector
from repro.defects.universe import build_defect_universe
from repro.dut import default_dut


@pytest.fixture(scope="module")
def vref():
    return ReferenceBuffer().evaluate(Bandgap.VBG_NOMINAL)


class TestNominalSelection:
    def test_output_selects_requested_tap(self, vref):
        dac = make_subdac1()
        for code in (0, 1, 7, 16, 31):
            out = dac.evaluate(code, vref)
            assert out.out_p == pytest.approx(vref[code], abs=1e-6)
            assert out.out_n == pytest.approx(vref[32 - code], abs=1e-6)

    def test_complementary_sum_is_full_scale(self, vref):
        """Paper Eq. (2): OUT+ + OUT- = VREF[32] for every code."""
        dac = make_subdac2()
        for code in range(32):
            out = dac.evaluate(code, vref)
            assert out.out_p + out.out_n == pytest.approx(vref[32], abs=1e-6)

    def test_code_out_of_range_rejected(self, vref):
        dac = make_subdac1()
        with pytest.raises(SimulationError):
            dac.evaluate(32, vref)
        with pytest.raises(SimulationError):
            dac.evaluate(-1, vref)

    def test_wrong_vref_length_rejected(self):
        dac = make_subdac1()
        with pytest.raises(SimulationError):
            dac.evaluate(0, [0.0, 1.0])

    def test_two_subdacs_are_structurally_identical(self):
        d1, d2 = make_subdac1(), make_subdac2()
        assert len(d1.netlist) == len(d2.netlist)
        assert d1.block_path == "subdac1"
        assert d2.block_path == "subdac2"

    def test_fast_path_matches_full_path(self, vref):
        """The defect-free shortcut must agree with the full mux evaluation."""
        dac = make_subdac1()
        fast = dac.evaluate(13, vref)
        # Force the slow path by marking an unrelated benign defect state and
        # clearing it via a device that does not affect code 13.
        dac.netlist.device("drv_00_p").defect.shorted_terminals = ("s", "b")
        slow = dac.evaluate(13, vref)
        dac.clear_defects()
        assert slow.out_p == pytest.approx(fast.out_p, abs=1e-9)
        assert slow.out_n == pytest.approx(fast.out_n, abs=1e-9)

    @given(st.integers(min_value=0, max_value=31))
    @settings(max_examples=32, deadline=None)
    def test_complementary_property_all_codes(self, code):
        vref_local = ReferenceBuffer().evaluate(Bandgap.VBG_NOMINAL)
        out = make_subdac1().evaluate(code, vref_local)
        assert out.out_p + out.out_n == pytest.approx(vref_local[32], abs=1e-6)


class TestSwitchDefects:
    def test_stuck_open_switch_floats_selected_tap(self, vref):
        dac = make_subdac1()
        dac.netlist.device("swp_07").defect.open_terminal = "p"
        out = dac.evaluate(7, vref)
        assert out.out_p == pytest.approx(0.0, abs=1e-6)  # leakage level
        # Other codes are unaffected.
        assert dac.evaluate(8, vref).out_p == pytest.approx(vref[8], abs=1e-6)

    def test_stuck_closed_switch_averages_two_taps(self, vref):
        dac = make_subdac1()
        dac.netlist.device("swp_00").defect.shorted_terminals = ("p", "n")
        out = dac.evaluate(20, vref)
        expected = 0.5 * (vref[20] + vref[0])
        assert out.out_p == pytest.approx(expected, abs=1e-3)

    def test_control_open_switch_never_conducts(self, vref):
        dac = make_subdac1()
        dac.netlist.device("swn_16").defect.open_terminal = "ctrl"
        out = dac.evaluate(16, vref)  # negative side uses tap 32-16 = 16
        assert out.out_n == pytest.approx(0.0, abs=1e-6)


class TestDriverDefects:
    def test_pullup_short_forces_tap_always_on(self, vref):
        dac = make_subdac1()
        dac.netlist.device("drv_00_p").defect.shorted_terminals = ("d", "s")
        out = dac.evaluate(31, vref)
        expected = 0.5 * (vref[31] + vref[0])
        assert out.out_p == pytest.approx(expected, abs=1e-3)

    def test_pulldown_short_prevents_selection(self, vref):
        dac = make_subdac1()
        dac.netlist.device("drv_12_n").defect.shorted_terminals = ("d", "s")
        out = dac.evaluate(12, vref)
        assert out.out_p == pytest.approx(0.0, abs=1e-6)

    def test_pullup_gate_short_prevents_selection(self, vref):
        dac = make_subdac1()
        dac.netlist.device("drv_05_p").defect.shorted_terminals = ("g", "s")
        out = dac.evaluate(5, vref)
        assert out.out_p == pytest.approx(0.0, abs=1e-6)

    def test_benign_driver_defect_is_invisible(self, vref):
        dac = make_subdac1()
        dac.netlist.device("drv_09_n").defect.shorted_terminals = ("s", "b")
        out = dac.evaluate(9, vref)
        assert out.out_p == pytest.approx(vref[9], abs=1e-6)

    def test_driver_defect_affects_both_outputs_via_shared_decoder(self, vref):
        """Driver j is shared by the positive tap j and the negative tap 32-j."""
        dac = make_subdac1()
        dac.netlist.device("drv_03_p").defect.shorted_terminals = ("d", "s")
        out = dac.evaluate(20, vref)
        # Positive output: taps 20 and 3 fight; negative output: taps 12 and 29.
        assert out.out_p == pytest.approx(0.5 * (vref[20] + vref[3]), abs=1e-3)
        assert out.out_n == pytest.approx(0.5 * (vref[12] + vref[29]), abs=1e-3)


class TestBufferDefects:
    def test_follower_open_floats_output(self, vref):
        dac = make_subdac1()
        dac.netlist.device("bufp_sf").defect.open_terminal = "s"
        assert dac.evaluate(10, vref).out_p == pytest.approx(0.0, abs=1e-6)

    def test_bias_stuck_on_drops_output(self, vref):
        dac = make_subdac1()
        dac.netlist.device("bufn_bias").defect.shorted_terminals = ("d", "s")
        nominal = vref[32 - 10]
        assert dac.evaluate(10, vref).out_n < nominal - 0.05


def reference_mux_table(dac, side):
    """The multiplexer table of one side by the full walk over every tap and
    its four devices (what ``SubDac._mux_table`` computed before it started
    from the clean table)."""
    g, con_on, con_off, forced, anomalous = [], [], [], [], []
    for tap in range(dac.n_levels):
        switch = dac.netlist.device(f"sw{side}_{tap:02d}")
        driver = tap if side == "p" else dac.n_levels - 1 - tap
        pull_up = dac.netlist.device(f"drv_{driver:02d}_p")
        pull_down = dac.netlist.device(f"drv_{driver:02d}_n")
        f = None
        if pull_up.has_defect or pull_down.has_defect:
            f = dac._forced_inverter_output(pull_up, pull_down)
        on, off = switch_state(switch, True), switch_state(switch, False)
        g.append(1.0 / max(float(switch.params.get("ron", 200.0)), 1e-3))
        con_on.append(on)
        con_off.append(off)
        forced.append(f)
        if f is not None or not on or off:
            anomalous.append(tap)
    return g, con_on, con_off, forced, anomalous


class TestMuxTables:
    @pytest.mark.parametrize("bits", [10, 8, 12])
    def test_touched_taps_table_equals_full_walk(self, bits):
        """Every sub-DAC defect of the device: the table rebuilt from the
        clean one equals the full 33-tap (for 10 bits) walk."""
        adc = SarAdc(default_dut().merged({"resolution_bits": bits}))
        hierarchy = adc.build_hierarchy()
        injector = DefectInjector(hierarchy)
        defects = build_defect_universe(
            hierarchy, blocks=["subdac1", "subdac2"]).defects
        assert defects
        for defect in defects:
            dac = adc.block(defect.block_path)
            with injector.injected(defect):
                defective = dac.netlist.defective_devices()
                for side in ("p", "n"):
                    assert dac._mux_table(side, defective) == \
                        reference_mux_table(dac, side), defect.defect_id

    def test_clean_table_has_no_anomalous_tap(self):
        dac = make_subdac1()
        assert dac._mux_table("p", []) == reference_mux_table(dac, "p")
        assert dac._mux_table("n", [])[4] == []


def _column_bytes(dac, vref):
    """The column kernel's outputs of every code, as float64 bytes."""
    codes = np.arange(dac.dut.counter_codes)
    return np.array(dac.columns(dac.resolve(), codes, vref)).tobytes()


def _scalar_bytes(dac, vref):
    """:meth:`SubDac.evaluate` of every code, as float64 bytes, laid out
    like :func:`_column_bytes` (one row per output)."""
    outputs = [dac.evaluate(code, vref)
               for code in range(dac.dut.counter_codes)]
    return np.array([[out.out_p for out in outputs],
                     [out.out_n for out in outputs]]).tobytes()


def _kernel_param(bits):
    marks = [pytest.mark.slow] if bits == 12 else []
    return pytest.param(bits, id=f"{bits}bit", marks=marks)


class TestColumnKernel:
    @pytest.mark.parametrize("bits", [_kernel_param(b) for b in (8, 10, 12)])
    def test_columns_equal_scalar_evaluate_for_every_defect(self, bits):
        """``SubDac.columns`` equals ``SubDac.evaluate`` bit for bit (the
        sign of zero included) on every code: for every sub-DAC defect of
        the device (injected into the nominal instance, as campaigns do),
        and defect-free on the nominal and on a Monte Carlo-varied instance
        (drawn buffer offsets and reference ladder, as calibration does)."""
        adc = SarAdc(default_dut().merged({"resolution_bits": bits}))
        hierarchy = adc.build_hierarchy()
        injector = DefectInjector(hierarchy)
        defects = build_defect_universe(
            hierarchy, blocks=["subdac1", "subdac2"]).defects
        assert defects
        vref = adc.operating_point().vref
        for defect in defects:
            dac = adc.block(defect.block_path)
            with injector.injected(defect):
                assert _column_bytes(dac, vref) == _scalar_bytes(dac, vref), \
                    defect.defect_id
        for varied in (False, True):
            if varied:
                adc.sample_variation(np.random.default_rng(11))
                assert adc.sarcell.dac.subdac1.parameter(
                    "buffer_offset_p") != 0.0
            vref = adc.operating_point().vref
            for dac in (adc.sarcell.dac.subdac1, adc.sarcell.dac.subdac2):
                assert dac.resolve()[2] is None
                assert _column_bytes(dac, vref) == _scalar_bytes(dac, vref)

    def test_codes_out_of_range_rejected(self, vref):
        dac = make_subdac1()
        with pytest.raises(SimulationError):
            dac.columns(dac.resolve(), np.array([0, 32]), vref)
        with pytest.raises(SimulationError):
            dac.columns(dac.resolve(), np.array([0], dtype=np.int64),
                        [0.0, 1.0])
