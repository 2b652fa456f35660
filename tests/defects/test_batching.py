"""Batched defect evaluation: batch spans, golden trace, locality fallback.

Three pillars of the batching equivalence guarantee:

* batch spans partition a block's defect list exactly once, in order, for
  *any* batch size (property-based, so the partition law is exercised
  across the space rather than at hand-picked sizes);
* the cached defect-free golden trace is bit-identical to a full controller
  re-simulation for every stimulus kind the campaigns use, on every device
  variant -- and so is every batched defect record (the
  ``simulate_defect`` oracle);
* a defect that is not provably local to one pipeline stage falls back to
  the full simulation and produces the exact same record.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adc import SarAdc
from repro.adc.sar_adc import DutAdcFactory
from repro.circuit.errors import CoverageError
from repro.core import (build_golden_trace, build_invariances,
                        calibrate_windows, run_symbist)
from repro.core.stimulus import SymBistStimulus
from repro.core.test_time import CheckingMode
from repro.defects import (DefectCampaign, LOCAL_STAGE, STAGE_DOWNSTREAM,
                           batch_spans)
from repro.dut import default_dut


# -------------------------------------------------------------- batch spans
class TestBatchSpans:
    @given(n=st.integers(0, 200), batch_size=st.integers(1, 64))
    @settings(max_examples=80, deadline=None)
    def test_spans_partition_range_exactly_once_in_order(self, n, batch_size):
        spans = batch_spans(n, batch_size)
        flat = [i for start, stop in spans for i in range(start, stop)]
        assert flat == list(range(n))

    @given(n=st.integers(1, 200), batch_size=st.integers(1, 64))
    @settings(max_examples=50, deadline=None)
    def test_only_the_final_span_may_be_short(self, n, batch_size):
        spans = batch_spans(n, batch_size)
        assert all(stop - start == batch_size
                   for start, stop in spans[:-1])
        assert 0 < spans[-1][1] - spans[-1][0] <= batch_size

    def test_batch_size_one_degenerates_to_one_span_per_index(self):
        assert batch_spans(4, 1) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_rejects_invalid_inputs(self):
        with pytest.raises(CoverageError):
            batch_spans(-1, 4)
        with pytest.raises(CoverageError):
            batch_spans(4, 0)


# ------------------------------------------------------------- golden trace
#: Device variants the golden trace must reproduce: the paper's device, the
#: resolutions whose reference ladders are shorter and longer than its 33
#: taps, and a lower supply rail.
DUTS = {
    "default": default_dut(),
    "8bit": default_dut().merged({"resolution_bits": 8}),
    "12bit": default_dut().merged({"resolution_bits": 12}),
    "vdd1.08": default_dut().merged({"vdd": 1.08}),
}


def _dut_stimulus(dut):
    """The device's own SymBIST stimulus (its counter width and levels)."""
    return SymBistStimulus(input_diff=dut.test_input_diff,
                           input_cm=dut.common_mode,
                           counter_bits=dut.half_bits)


#: Stimulus kinds the campaigns run, per device: the default exhaustive
#: counter ramp, a sine-fit-style large differential input, a servo-style
#: counter replay, and a histogram-style short counter with many repeats.
STIMULI = {
    "ramp": lambda dut: _dut_stimulus(dut),
    "sine_fit": lambda dut: replace(_dut_stimulus(dut), input_diff=0.25),
    "servo": lambda dut: replace(_dut_stimulus(dut), repeats=2),
    "histogram": lambda dut: replace(_dut_stimulus(dut), counter_bits=4,
                                     repeats=3),
}

#: (device, stimulus kind) cases; the paper's device keeps the bare kind id.
CASES = [pytest.param(dut, kind,
                      id=kind if dut == "default" else f"{kind}-{dut}")
         for dut in DUTS for kind in sorted(STIMULI)]

_UNIT_DELTAS = {inv.name: 1.0 for inv in build_invariances()}


class TestGoldenTrace:
    @pytest.mark.parametrize("dut, kind", CASES)
    def test_golden_residuals_equal_full_resimulation(self, dut, kind):
        """The cached baseline is the full simulation, bit for bit, for
        every stimulus kind on every device variant."""
        stimulus = STIMULI[kind](DUTS[dut])
        adc = SarAdc(dut=DUTS[dut])
        golden = build_golden_trace(adc, stimulus)
        result = run_symbist(adc, _UNIT_DELTAS, stimulus=stimulus)
        assert all(column.dtype == np.float64
                   for column in golden.residuals.values())
        assert {name: column.tolist()
                for name, column in golden.residuals.items()} == \
            result.settled_residuals

    @pytest.mark.parametrize("dut, kind", CASES)
    def test_golden_signals_equal_full_resimulation(self, dut, kind):
        """Each golden signal column is the per-cycle full simulation's
        value of that signal, cycle by cycle."""
        stimulus = STIMULI[kind](DUTS[dut])
        adc = SarAdc(dut=DUTS[dut])
        golden = build_golden_trace(adc, stimulus)
        op = adc.operating_point(input_diff=stimulus.input_diff,
                                 input_cm=stimulus.input_cm)
        adc.sarcell.comparator.rs_latch.reset_state()
        full = [adc.evaluate_test_cycle(stimulus.code_for_cycle(cycle), op)
                for cycle in range(stimulus.n_cycles)]
        assert all(column.dtype == np.float64
                   for column in golden.columns.values())
        assert golden.cycle_codes.tolist() == \
            [stimulus.code_for_cycle(cycle)
             for cycle in range(stimulus.n_cycles)]
        assert {name: column.tolist()
                for name, column in golden.columns.items()} == \
            {name: [signals[name] for signals in full] for name in full[0]}

    def test_every_universe_block_is_in_the_locality_map(self, deltas):
        """No silent full-simulation fallback for the shipped ADC: every
        block of the real defect universe is provably local to a stage."""
        campaign = DefectCampaign(adc=SarAdc(), deltas=deltas)
        assert set(campaign.universe.block_paths()) <= set(LOCAL_STAGE)
        assert set(LOCAL_STAGE.values()) <= set(STAGE_DOWNSTREAM)


class TestNonLocalFallback:
    def test_non_local_defect_falls_back_to_full_simulation(
            self, deltas, monkeypatch):
        """A block missing from the locality map is evaluated by the exact
        unbatched path -- same record, just without the golden shortcut."""
        campaign = DefectCampaign(adc=SarAdc(), deltas=deltas)
        defects = [d for d in campaign.universe.defects
                   if d.block_path == "sc_array"][:4]
        expected = [campaign.simulate_defect(d) for d in defects]

        from repro.defects import batching
        monkeypatch.delitem(batching.LOCAL_STAGE, "sc_array")
        evaluator = campaign._batch_evaluator()
        assert all(not evaluator.is_local(d) for d in defects)
        assert all(evaluator.evaluate(d) is None for d in defects)

        batched = campaign.simulate_defect_batch(defects)
        key = lambda r: (r.defect.defect_id, r.detected,
                         r.detecting_invariance, r.detection_cycle,
                         r.cycles_run, r.modeled_sim_time)
        assert [key(r) for r in batched] == [key(r) for r in expected]


# ------------------------------------------------------------------ oracles
def _record_key(record):
    """Everything a record reports except the measured wall time."""
    return (record.defect.defect_id, record.detected,
            record.detecting_invariance, record.detection_cycle,
            record.cycles_run, record.modeled_sim_time)


def _dut_campaign(dut, mode=CheckingMode.SEQUENTIAL):
    """A campaign on ``dut`` with its own stimulus and calibrated windows."""
    stimulus = _dut_stimulus(dut)
    calibration = calibrate_windows(
        adc_factory=DutAdcFactory(dut), stimulus=stimulus, n_monte_carlo=5,
        rng=np.random.default_rng(7), variation_spec=dut.variation_spec())
    return DefectCampaign(adc=SarAdc(dut=dut), deltas=calibration.deltas,
                          stimulus=stimulus, mode=mode)


def _oracle_param(dut, mode):
    """One oracle case; the sequential schedule keeps the bare device id."""
    case_id = dut if mode is CheckingMode.SEQUENTIAL \
        else f"{dut}-{mode.value}"
    marks = [pytest.mark.slow] if dut == "12bit" else []
    return pytest.param(dut, mode, id=case_id, marks=marks)


class TestBatchedOracle:
    # The 12-bit universe holds 4983 defects of 64 test cycles each; its
    # full re-simulations take ~30 s, so that case runs with the slow tests
    # (its golden signals and residuals are checked above on every run).
    @pytest.mark.parametrize("dut, mode", [
        _oracle_param(dut, mode) for mode in CheckingMode
        for dut in sorted(DUTS)])
    def test_every_tenth_defect_matches_simulate_defect(self, dut, mode):
        """Golden-trace batches report what the full re-simulation
        reports, on every device variant and in both checking schedules."""
        campaign = _dut_campaign(DUTS[dut], mode)
        defects = campaign.universe.defects[::10]
        batched = campaign.simulate_defect_batch(defects)
        full = [campaign.simulate_defect(defect) for defect in defects]
        assert [_record_key(r) for r in batched] == \
            [_record_key(r) for r in full]
        assert any(r.detected for r in full)
        assert not all(r.detected for r in full)


@pytest.mark.slow
class TestWholeUniverseOracle:
    @pytest.mark.parametrize("stop_on_detection", [True, False])
    def test_every_defect_matches_simulate_defect(self, deltas,
                                                  stop_on_detection):
        """All 2775 defects of the paper's device, in one batch, against
        the full re-simulation of each."""
        campaign = DefectCampaign(adc=SarAdc(), deltas=deltas,
                                  stop_on_detection=stop_on_detection)
        defects = campaign.universe.defects
        assert len(defects) == 2775
        batched = campaign.simulate_defect_batch(defects)
        mismatches = [defect.defect_id
                      for defect, record in zip(defects, batched)
                      if _record_key(record)
                      != _record_key(campaign.simulate_defect(defect))]
        assert mismatches == []
