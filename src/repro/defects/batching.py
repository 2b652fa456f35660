"""Batched defect evaluation against a cached defect-free golden trace.

The per-defect hot path of a campaign re-simulates the whole behavioral ADC
per defect: the transient engine sweeps every counter cycle, and each cycle
re-evaluates every block -- including the ``netlist.has_defect`` scans and the
Vcm generator's linear-network solve -- even though a single injected defect
only perturbs one block and its downstream cone.

This module replaces that full re-simulation with a *staged* evaluation
against a cached defect-free **golden trace** per stimulus:

* the golden trace records, per counter code, the settled outputs of every
  pipeline stage (operating point, Vcm, sub-DACs, SC array, pre-amplifier,
  comparator latch) plus the per-cycle RS-latch outputs and the assembled
  signal dictionaries / invariance residuals;
* for a defect that is provably **local** to one block
  (:data:`LOCAL_STAGE`), only that block's stage and its downstream closure
  (:data:`STAGE_DOWNSTREAM`) are re-evaluated -- with the *same* block
  ``evaluate`` methods and the same float arithmetic, so every reused or
  recomputed value is bit-identical to what a full simulation would produce;
* the RS latch (the only stateful element) is always replayed per cycle from
  its reset state, exactly like
  :meth:`~repro.core.controller.SymBistController.run` does;
* a defect whose block is *not* in the locality map is reported as non-local
  (:meth:`BatchedDefectEvaluator.is_local` returns False) and the caller
  falls back to the full simulation.

Bit-identity holds because every block model is a pure function of its inputs
and its own netlist/parameter state: stages upstream of and parallel to the
defective block see identical inputs and a clean netlist, so recomputing them
would reproduce the golden values exactly -- reusing the golden values is
therefore indistinguishable from a full re-simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..adc.sar_adc import OperatingPoint, SarAdc
from ..adc.sc_array import ScArrayInputs
from ..core.controller import resolve_detection
from ..core.invariance import Invariance, build_invariances
from ..core.stimulus import SymBistStimulus
from ..core.test_time import CheckingMode
from ..core.window_comparator import WindowComparator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (simulator imports us)
    from .model import Defect

#: Pipeline stage that each analog block is local to.  A defect in one of
#: these blocks only perturbs that stage and its downstream closure; a block
#: absent from this map is *non-local* and must be fully re-simulated.
LOCAL_STAGE: Dict[str, str] = {
    "bandgap": "op",
    "reference_buffer": "op",
    "vcm_generator": "vcm",
    "subdac1": "sub1",
    "subdac2": "sub2",
    "sc_array": "sc",
    "preamplifier": "pre",
    "offset_compensation": "pre",
    "comparator_latch": "latch",
    "rs_latch": "rs",
}

#: Downstream closure of each stage: the stages whose inputs change when the
#: keyed stage's outputs change.  The RS latch is excluded -- it is stateful
#: and therefore always replayed per cycle from reset.
STAGE_DOWNSTREAM: Dict[str, frozenset] = {
    "op": frozenset({"vcm", "sub1", "sub2", "sc", "pre", "latch"}),
    "vcm": frozenset({"sc", "pre", "latch"}),
    "sub1": frozenset({"sc", "pre", "latch"}),
    "sub2": frozenset({"sc", "pre", "latch"}),
    "sc": frozenset({"pre", "latch"}),
    "pre": frozenset({"latch"}),
    "latch": frozenset(),
    "rs": frozenset(),
}


@dataclass
class GoldenTrace:
    """Defect-free settled trace of one (ADC state, stimulus) pair.

    Per-*code* lists hold one entry per distinct counter code; the per-*cycle*
    lists (RS latch, signals, residuals) hold one entry per clock cycle,
    which differs when the stimulus replays the counter (``repeats > 1``).
    """

    fingerprint: str
    op: OperatingPoint
    vcm: float
    sub1: List  # SubDacOutput per code
    sub2: List  # SubDacOutput per code
    sc: List    # ScArrayOutput per code
    pre: List   # PreampOutput per code
    ql: List    # LatchOutput per code
    q: List     # LatchOutput per cycle (RS latch replay)
    signals: List[Dict[str, float]]        # per cycle
    residuals: Dict[str, List[float]]      # per invariance, per cycle


class BatchedDefectEvaluator:
    """Evaluates defects of one campaign against a shared golden trace.

    The evaluator belongs to one :class:`~repro.defects.simulator.
    DefectCampaign` (it reads the ADC, stimulus, deltas and checking mode
    from it) and assumes the campaign's single-defect convention: at most one
    device is defective while :meth:`evaluate` runs.
    """

    def __init__(self, adc: SarAdc, stimulus: SymBistStimulus,
                 deltas: Dict[str, float], mode: CheckingMode,
                 stop_on_detection: bool, fingerprint: str,
                 invariances: Optional[Sequence[Invariance]] = None) -> None:
        self.adc = adc
        self.stimulus = stimulus
        self.mode = mode
        self.stop_on_detection = stop_on_detection
        self.invariances = list(invariances) if invariances is not None \
            else build_invariances()
        self.set_deltas(deltas)
        self.golden = build_golden_trace(adc, stimulus, fingerprint,
                                         self.invariances)

    def set_deltas(self, deltas: Dict[str, float]) -> None:
        """Rebuild the window checkers for a new delta table.

        The golden trace is defect-free signal data -- independent of the
        comparison windows -- so per-block delta overrides (block-study
        graphs refresh the campaign's deltas per task) only need the
        checkers rebuilt, never a re-simulation.
        """
        self.deltas = dict(deltas)
        self.checkers = {name: WindowComparator(name=name, delta=delta)
                         for name, delta in deltas.items()}

    # ------------------------------------------------------------------ policy
    @staticmethod
    def is_local(defect: "Defect") -> bool:
        """Whether the defect is provably local to one pipeline stage."""
        return defect.block_path in LOCAL_STAGE

    # -------------------------------------------------------------- evaluation
    def evaluate(self, defect: "Defect"
                 ) -> Optional[Tuple[bool, Optional[str], Optional[int], int]]:
        """Evaluate one *injected* defect against the golden trace.

        Returns ``(detected, detecting_invariance, detection_cycle,
        cycles_run)`` -- bit-identical to a full
        :class:`~repro.core.controller.SymBistController` run -- or ``None``
        when the defect is not local to one stage (the caller must then fall
        back to full simulation, *outside* the injection context).

        The caller is responsible for having the defect injected into the
        ADC's netlists while this method runs.
        """
        if not self.is_local(defect):
            return None
        settled = self._settled_residuals(LOCAL_STAGE[defect.block_path])

        check_results = {
            name: self.checkers[name].check_array(residuals)
            for name, residuals in settled.items()}
        passed, first_detection, _, cycles_run = resolve_detection(
            self.mode, self.stimulus.n_cycles,
            [inv.name for inv in self.invariances], check_results,
            self.stop_on_detection)
        detecting = first_detection[0] if first_detection else None
        detection_cycle = first_detection[1] if first_detection else None
        return (not passed, detecting, detection_cycle, cycles_run)

    def _settled_residuals(self, stage: str) -> Dict[str, List[float]]:
        """Per-invariance settled residuals for a defect local to ``stage``.

        Only the defective stage itself is unconditionally recomputed (its
        netlist carries the defect).  Every downstream stage has a *clean*
        netlist and is a pure function of its inputs, so it is recomputed
        only for the codes whose inputs actually differ from the golden
        trace -- where the inputs are bit-equal, recomputing would reproduce
        the golden value exactly, and the golden value is reused instead.
        The per-code/per-cycle ``changed`` flags below track exactly that
        input-difference condition.
        """
        golden = self.golden
        adc = self.adc
        cell = adc.sarcell
        stimulus = self.stimulus
        n_codes = stimulus.n_codes
        codes = range(n_codes)
        no_change = [False] * n_codes

        if stage == "op":
            op = adc.operating_point(input_diff=stimulus.input_diff,
                                     input_cm=stimulus.input_cm)
            op_changed = op != golden.op
        else:
            op = golden.op
            op_changed = False

        if stage == "vcm" or op_changed:
            vcm = cell.vcm_generator.evaluate(op.vbg)
        else:
            vcm = golden.vcm
        vcm_changed = vcm != golden.vcm

        if stage == "sub1" or op_changed:
            sub1 = cell.dac.subdac1.sweep(codes, op.vref)
            changed1 = [sub1[c] != golden.sub1[c] for c in codes]
        else:
            sub1, changed1 = golden.sub1, no_change
        if stage == "sub2" or op_changed:
            sub2 = cell.dac.subdac2.sweep(codes, op.vref)
            changed2 = [sub2[c] != golden.sub2[c] for c in codes]
        else:
            sub2, changed2 = golden.sub2, no_change

        if stage == "sc":
            dirty_sc = [True] * n_codes
        else:
            dirty_sc = [op_changed or vcm_changed or changed1[c] or changed2[c]
                        for c in codes]
        sc = list(golden.sc)
        changed_sc = list(no_change)
        sc_codes = [c for c in codes if dirty_sc[c]]
        if sc_codes:
            swept = cell.dac.sc_array.sweep(
                _sc_inputs(adc.dut, op, vcm, sub1, sub2, sc_codes))
            for c, out in zip(sc_codes, swept):
                sc[c] = out
                changed_sc[c] = out != golden.sc[c]

        if stage == "pre":
            pre_codes = list(codes)
        else:
            pre_codes = [c for c in codes if op_changed or changed_sc[c]]
        pre = list(golden.pre)
        changed_pre = list(no_change)
        if pre_codes:
            swept = cell.comparator.preamplifier.sweep(
                [(sc[c].dac_p, sc[c].dac_m) for c in pre_codes], op.ibias,
                cell.comparator.offset_compensation)
            for c, out in zip(pre_codes, swept):
                pre[c] = out
                changed_pre[c] = out != golden.pre[c]

        if stage == "latch":
            ql_codes = list(codes)
        else:
            ql_codes = [c for c in codes if changed_pre[c]]
        ql = list(golden.ql)
        ql_changed = list(no_change)
        if ql_codes:
            swept = cell.comparator.latch.sweep(
                [(pre[c].lin_p, pre[c].lin_m) for c in ql_codes])
            for c, out in zip(ql_codes, swept):
                ql[c] = out
                ql_changed[c] = out != golden.ql[c]

        # The RS latch is the only stateful element.  It must be replayed
        # from reset when its own netlist is defective or any of its inputs
        # changed; otherwise the replay would reproduce the golden per-cycle
        # outputs exactly and they are reused instead.
        n_cycles = stimulus.n_cycles
        if stage == "rs" or any(ql_changed):
            q = cell.comparator.rs_latch.replay(
                [ql[stimulus.code_for_cycle(cycle)]
                 for cycle in range(n_cycles)])
            q_changed = [q[cycle] != golden.q[cycle]
                         for cycle in range(n_cycles)]
        else:
            q = golden.q
            q_changed = [False] * n_cycles

        code_changed = [op_changed or vcm_changed or changed1[c] or changed2[c]
                        or changed_sc[c] or changed_pre[c] or ql_changed[c]
                        for c in codes]
        settled: Dict[str, List[float]] = {inv.name: []
                                           for inv in self.invariances}
        for cycle in range(n_cycles):
            code = stimulus.code_for_cycle(cycle)
            if not code_changed[code] and not q_changed[cycle]:
                # Every signal of this cycle is bit-equal to the golden
                # trace, so each invariance residual is too.
                for inv in self.invariances:
                    settled[inv.name].append(
                        golden.residuals[inv.name][cycle])
                continue
            signals = _assemble_signals(adc.dut, op, vcm, sub1[code],
                                        sub2[code], sc[code], pre[code],
                                        ql[code], q[cycle])
            for inv in self.invariances:
                settled[inv.name].append(inv.evaluate(signals))
        return settled


def _sc_inputs(dut, op, vcm, sub1, sub2,
               codes: Sequence[int]) -> List[ScArrayInputs]:
    """The SC-array inputs of each counter code in ``codes``."""
    vref_mid = op.vref[dut.mid_tap]
    return [ScArrayInputs(in_p=op.in_p, in_m=op.in_m,
                          m_p=sub1[c].out_p, m_m=sub1[c].out_n,
                          l_p=sub2[c].out_p, l_m=sub2[c].out_n,
                          vcm=vcm, vref_mid=vref_mid) for c in codes]


def _assemble_signals(dut, op, vcm, sub1, sub2, sc, pre, ql,
                      q) -> Dict[str, float]:
    """One cycle's signal dictionary, matching ``SarAdc.evaluate_test_cycle``
    (the reference taps and the supply are the device's, not the paper's)."""
    return {
        "M+": sub1.out_p, "M-": sub1.out_n,
        "L+": sub2.out_p, "L-": sub2.out_n,
        "DAC+": sc.dac_p, "DAC-": sc.dac_m,
        "LIN+": pre.lin_p, "LIN-": pre.lin_m,
        "QL+": ql.q_p, "QL-": ql.q_m,
        "Q+": q.q_p, "Q-": q.q_m,
        "VCM": vcm,
        "VREF32": op.vref[-1],
        "VREF16": op.vref[dut.mid_tap],
        "VBG": op.vbg,
        "IBIAS": op.ibias,
        "IN+": op.in_p,
        "IN-": op.in_m,
        "VDD": dut.vdd,
    }


def build_golden_trace(adc: SarAdc, stimulus: SymBistStimulus,
                       fingerprint: str,
                       invariances: Optional[Sequence[Invariance]] = None
                       ) -> GoldenTrace:
    """Simulate the defect-free ADC once, staged, and record everything.

    Must be called with no defect injected (the campaign clears defects
    before fingerprinting).  The trace is computed through the very same
    staged path the evaluator uses -- the stimulus codes sweep each block's
    ``evaluate``/``sweep`` method once per distinct code, and the RS latch is
    replayed per cycle from reset -- so golden values are bit-identical to a
    full :class:`~repro.core.controller.SymBistController` re-simulation.
    """
    invariances = list(invariances) if invariances is not None \
        else build_invariances()
    cell = adc.sarcell
    op = adc.operating_point(input_diff=stimulus.input_diff,
                             input_cm=stimulus.input_cm)
    vcm = cell.vcm_generator.evaluate(op.vbg)
    codes = range(stimulus.n_codes)
    sub1 = cell.dac.subdac1.sweep(codes, op.vref)
    sub2 = cell.dac.subdac2.sweep(codes, op.vref)
    sc = cell.dac.sc_array.sweep(
        _sc_inputs(adc.dut, op, vcm, sub1, sub2, codes))
    pre = cell.comparator.preamplifier.sweep(
        [(sc[c].dac_p, sc[c].dac_m) for c in codes], op.ibias,
        cell.comparator.offset_compensation)
    ql = cell.comparator.latch.sweep(
        [(pre[c].lin_p, pre[c].lin_m) for c in codes])

    q = cell.comparator.rs_latch.replay(
        [ql[stimulus.code_for_cycle(cycle)]
         for cycle in range(stimulus.n_cycles)])
    signals: List[Dict[str, float]] = []
    residuals: Dict[str, List[float]] = {inv.name: [] for inv in invariances}
    for cycle in range(stimulus.n_cycles):
        code = stimulus.code_for_cycle(cycle)
        cycle_signals = _assemble_signals(adc.dut, op, vcm, sub1[code],
                                          sub2[code], sc[code], pre[code],
                                          ql[code], q[cycle])
        signals.append(cycle_signals)
        for inv in invariances:
            residuals[inv.name].append(inv.evaluate(cycle_signals))
    return GoldenTrace(fingerprint=fingerprint, op=op, vcm=vcm,
                       sub1=sub1, sub2=sub2, sc=sc, pre=pre, ql=ql, q=q,
                       signals=signals, residuals=residuals)
