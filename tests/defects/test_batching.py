"""Batched defect evaluation: batch spans, golden trace, stage locality.

The pillars of the batching equivalence guarantee:

* batch spans partition a block's defect list exactly once, in order, for
  *any* batch size (property-based, so the partition law is exercised
  across the space rather than at hand-picked sizes);
* the cached defect-free golden trace is bit-identical to a full controller
  re-simulation for every stimulus kind the campaigns use, on every device
  variant -- and so is every batched defect record (the
  ``simulate_defect`` oracle);
* a defect whose block has no stage in the stage table is an error that
  names the block, never a silent detour;
* every block of the IP is local to its mapped stage (the locality
  oracle), and the residual memo keyed by the defective stage's output
  (:func:`~repro.defects.batching.stage_key`) covers every bit of that
  output and returns the records a fresh evaluator returns.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adc import SarAdc
from repro.adc.sar_adc import DutAdcFactory
from repro.circuit.errors import CoverageError, DefectError
from repro.core import (build_golden_trace, build_invariances,
                        calibrate_windows, run_symbist)
from repro.core.golden_trace import STAGES
from repro.core.stimulus import SymBistStimulus
from repro.core.test_time import CheckingMode
from repro.defects import (DefectCampaign, DefectInjector, LOCAL_STAGE,
                           batch_spans, build_defect_universe)
from repro.defects.batching import stage_key
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
        """Every block of the real defect universe is local to a stage,
        and every stage is local to some block."""
        campaign = DefectCampaign(adc=SarAdc(), deltas=deltas)
        assert set(campaign.universe.block_paths()) <= set(LOCAL_STAGE)
        assert set(LOCAL_STAGE.values()) == set(STAGES)


class TestMissingStage:
    def test_block_without_a_stage_is_an_error_naming_it(
            self, deltas, monkeypatch):
        """A block missing from the locality map fails the batch loudly,
        with the block's name, and leaves no defect injected."""
        campaign = DefectCampaign(adc=SarAdc(), deltas=deltas)
        defects = [d for d in campaign.universe.defects
                   if d.block_path == "sc_array"][:4]
        monkeypatch.delitem(LOCAL_STAGE, "sc_array")
        with pytest.raises(DefectError, match="'sc_array'"):
            campaign.simulate_defect_batch(defects)
        assert not any(blk.has_defect for blk in campaign.adc.analog_blocks)


# ------------------------------------------------------------------ oracles
def _dut_campaign(dut, mode=CheckingMode.SEQUENTIAL, stop_on_detection=True):
    """A campaign on ``dut`` with its own stimulus and calibrated windows."""
    stimulus = _dut_stimulus(dut)
    calibration = calibrate_windows(
        adc_factory=DutAdcFactory(dut), stimulus=stimulus, n_monte_carlo=5,
        rng=np.random.default_rng(7), variation_spec=dut.variation_spec())
    return DefectCampaign(adc=SarAdc(dut=dut), deltas=calibration.deltas,
                          stimulus=stimulus, mode=mode,
                          stop_on_detection=stop_on_detection)


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
        assert batched == full
        assert any(r.detected for r in full)
        assert not all(r.detected for r in full)


def _universe_mismatches(campaign):
    """Ids of the defects whose record in one batch of the whole universe
    differs from the full re-simulation of the defect."""
    defects = campaign.universe.defects
    batched = campaign.simulate_defect_batch(defects)
    return [defect.defect_id for defect, record in zip(defects, batched)
            if record != campaign.simulate_defect(defect)]


@pytest.mark.slow
class TestWholeUniverseOracle:
    @pytest.mark.parametrize("stop_on_detection", [True, False])
    def test_every_defect_matches_simulate_defect(self, deltas,
                                                  stop_on_detection):
        """All 2775 defects of the paper's device, in one batch, against
        the full re-simulation of each."""
        campaign = DefectCampaign(adc=SarAdc(), deltas=deltas,
                                  stop_on_detection=stop_on_detection)
        assert len(campaign.universe) == 2775
        assert _universe_mismatches(campaign) == []

    @pytest.mark.parametrize("stop_on_detection", [True, False])
    def test_every_8bit_defect_matches_simulate_defect(self,
                                                       stop_on_detection):
        """All 1671 defects of the 8-bit device, whose ladder, counter and
        sub-DAC tables are shorter than the paper's."""
        campaign = _dut_campaign(DUTS["8bit"],
                                 stop_on_detection=stop_on_detection)
        assert len(campaign.universe) == 1671
        assert _universe_mismatches(campaign) == []


# --------------------------------------------------------- locality oracle
def _defect_cone(defect):
    """The stages a defect may change: its block's stage and every stage
    that reads it, directly or not, by the stage table's inputs."""
    cone = {LOCAL_STAGE[defect.block_path]}
    for name, stage in STAGES.items():
        if cone.intersection(stage.inputs):
            cone.add(name)
    return cone


def _stages_outside_cone_changed(defects):
    """``(defect_id, stage)`` of every stage outside a defect's cone whose
    output in the injected ADC's golden trace is not bit-equal to the
    clean trace's."""
    adc = SarAdc()
    hierarchy = adc.build_hierarchy()
    injector = DefectInjector(hierarchy)
    stimulus = SymBistStimulus()
    clean = build_golden_trace(adc, stimulus)
    changed = []
    for defect in defects:
        with injector.injected(defect):
            trace = build_golden_trace(adc, stimulus)
        for stage in STAGES:
            if stage not in _defect_cone(defect) and \
                    stage_key(stage, getattr(trace, stage)) != \
                    stage_key(stage, getattr(clean, stage)):
                changed.append((defect.defect_id, stage))
    return changed


def _default_universe():
    return build_defect_universe(SarAdc().build_hierarchy())


class TestLocalityOracle:
    def test_every_ams_block_is_in_the_locality_map(self):
        """Every analog block of the IP's hierarchy -- not only those the
        defect universe happens to hold -- is mapped to its stage, on every
        device variant."""
        for dut in DUTS.values():
            blocks = [entry.path for entry in
                      SarAdc(dut=dut).build_hierarchy().blocks("ams")]
            assert blocks
            assert set(blocks) <= set(LOCAL_STAGE)

    def test_every_tenth_defect_changes_only_its_cone(self):
        """Injecting a defect leaves every stage outside its cone
        (:func:`_defect_cone`) bit-equal to the clean golden trace."""
        assert _stages_outside_cone_changed(
            _default_universe().defects[::10]) == []

    @pytest.mark.slow
    def test_every_defect_changes_only_its_cone(self):
        defects = _default_universe().defects
        assert len(defects) == 2775
        assert _stages_outside_cone_changed(defects) == []


# ------------------------------------------------------------ residual memo
@pytest.fixture(scope="module")
def warm_campaign(deltas):
    """A campaign whose evaluator has seen every defect of the universe."""
    campaign = DefectCampaign(adc=SarAdc(), deltas=deltas)
    campaign.simulate_defect_batch(campaign.universe.defects)
    return campaign


def _block_memo_keys(deltas, block):
    """Memo keys of a fresh evaluator that evaluated ``block``'s defects."""
    campaign = DefectCampaign(adc=SarAdc(), deltas=deltas)
    defects = campaign.universe.by_block(block).defects
    campaign.simulate_defect_batch(defects)
    keys = set(campaign._batch_evaluator().memo)
    assert 0 < len(keys) < len(defects)
    return keys


def _one_ulp_variants(output):
    """Every copy of a stage output with exactly one float moved up by one
    ulp, in order -- an array output element by element, row by row, the
    operating point field by field through :func:`dataclasses.fields` --
    enumerated independently of :func:`stage_key`."""
    if isinstance(output, np.ndarray):
        variants = []
        for i in range(output.size):
            variant = output.copy()
            variant.flat[i] = np.nextafter(variant.flat[i], np.inf)
            variants.append(variant)
        return variants
    if isinstance(output, float):
        return [float(np.nextafter(output, np.inf))]
    if isinstance(output, list):
        return [output[:i] + [variant] + output[i + 1:]
                for i, item in enumerate(output)
                for variant in _one_ulp_variants(item)]
    return [replace(output, **{f.name: variant})
            for f in fields(output)
            for variant in _one_ulp_variants(getattr(output, f.name))]


class TestResidualMemo:
    def test_warm_memo_matches_fresh_evaluators_under_two_windows(
            self, warm_campaign, deltas):
        """Records from an evaluator that has seen the whole universe equal
        those of an evaluator per defect (empty memo), for two delta tables
        switched through ``set_deltas``: the memo holds residuals, not
        outcomes."""
        defects = warm_campaign.universe.defects[::10]
        evaluator = warm_campaign._batch_evaluator()
        n_entries = len(evaluator.memo)
        tight = {name: 0.25 * delta for name, delta in deltas.items()}
        per_table = []
        for table in (deltas, tight):
            warm_campaign.deltas = dict(table)
            warm = warm_campaign.simulate_defect_batch(defects)
            assert warm_campaign._batch_evaluator() is evaluator
            fresh_campaign = DefectCampaign(adc=SarAdc(), deltas=table)
            fresh = []
            for defect in defects:
                fresh_campaign._batch_evaluator_slot = None
                fresh += fresh_campaign.simulate_defect_batch([defect])
            assert warm == fresh
            per_table.append(warm)
        warm_campaign.deltas = dict(deltas)
        assert per_table[0] != per_table[1]
        assert len(evaluator.memo) == n_entries  # every lookup was a hit

    def test_defects_collapse_onto_stage_outputs(self, warm_campaign, deltas):
        """The default universe needs fewer entries than defects, and the
        entries are keyed by stage output, not by block: the blocks of the
        ``op`` and the ``pre`` stage fill one key space each."""
        memo = warm_campaign._batch_evaluator().memo
        assert len(memo) < len(warm_campaign.universe)
        for stage, blocks in (("op", ("bandgap", "reference_buffer")),
                              ("pre", ("preamplifier",
                                       "offset_compensation"))):
            assert {key for key in memo if key[0] == stage} == \
                set().union(*(_block_memo_keys(deltas, block)
                              for block in blocks))

    def test_stored_matrices_are_read_only(self, warm_campaign):
        memo = warm_campaign._batch_evaluator().memo
        n_invariances = len(build_invariances())
        for matrix in memo.values():
            assert not matrix.flags.writeable
            assert matrix.dtype == np.float64
            assert matrix.shape == (n_invariances,
                                    SymBistStimulus().n_cycles)
        with pytest.raises(ValueError):
            next(iter(memo.values()))[0, 0] = 0.0

    @pytest.mark.parametrize("stage", sorted(STAGES))
    def test_key_holds_every_field_bit_for_bit(self, stage):
        """Each float of the stage output -- every row and every code or
        cycle of an array output, every field of the operating point, in
        order -- is one float64 word of the key, so a one-ulp move of any
        of them changes exactly that word."""
        golden = build_golden_trace(SarAdc(), SymBistStimulus())
        output = getattr(golden, stage)
        name, key = stage_key(stage, output)
        assert name == stage
        variants = _one_ulp_variants(output)
        assert len(key) == 8 * len(variants)
        for index, variant in enumerate(variants):
            moved = stage_key(stage, variant)[1]
            words = [i for i in range(len(variants))
                     if moved[8 * i:8 * i + 8] != key[8 * i:8 * i + 8]]
            assert words == [index]

    def test_signed_zeros_get_different_keys(self):
        assert stage_key("vcm", 0.0) != stage_key("vcm", -0.0)
        assert stage_key("vcm", 0.5) == stage_key("vcm", 0.5)
