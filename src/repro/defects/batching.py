"""Batched defect evaluation against the golden trace of the clean ADC.

The full re-simulation of a defect sweeps the whole behavioral ADC once per
clock cycle, although a single injected defect only perturbs one block and
its downstream cone.  The batched evaluator runs defects on the repository's
one staged residual kernel instead, the golden trace
(:mod:`repro.core.golden_trace`), which Monte Carlo window calibration uses
for every defect-free instance too:

* the evaluator keeps the golden trace of the clean ADC per stimulus: the
  settled output of every pipeline stage per counter code, the per-cycle
  RS-latch outputs, every signal as one float64 column and every invariance
  residual as one column;
* for a defect that is provably **local** to one block
  (:data:`LOCAL_STAGE`), only that block's stage and the codes of its
  downstream closure (:data:`STAGE_DOWNSTREAM`) whose inputs changed are
  re-evaluated -- with the *same* block ``evaluate``/``sweep`` methods and
  the same float arithmetic -- then the changed stages' columns are rebuilt
  and each invariance is evaluated once over the columns;
* the RS latch (the only stateful element) is replayed per cycle from its
  reset state, exactly like
  :meth:`~repro.core.controller.SymBistController.run` does;
* defects are collapsed by their effect: the residual matrix depends only
  on the output of the defective stage, so it is memoised by that output
  (:func:`stage_key`) and a defect whose stage output was seen before
  skips the downstream propagation;
* all window checks are one array comparison over the invariance x cycle
  residual matrix, and :func:`~repro.core.controller.resolve_detection`
  reads the first detection of the checking schedule from it;
* a defect whose block is *not* in the locality map is reported as non-local
  (:meth:`BatchedDefectEvaluator.is_local` returns False) and the caller
  falls back to the full simulation.

Bit-identity holds because every block model is a pure function of its inputs
and its own netlist/parameter state: stages upstream of and parallel to the
defective block see identical inputs and a clean netlist, so recomputing them
would reproduce the golden values exactly -- reusing the golden values is
therefore indistinguishable from a full re-simulation.

The residual memo is exact for the same reason.  Every stage downstream of
the defective block has a clean netlist, so the residual matrix is a pure
function of the defective stage's output.  Keys are the raw float64 bytes
of every field of that output, never float equality: two defects share an
entry only when their stage outputs are bit-equal, and ``-0.0`` against
``0.0`` only costs a miss.  Entries hold residuals, not outcomes, so they
survive :meth:`BatchedDefectEvaluator.set_deltas`; the window check runs
per defect.  The memo lives on the evaluator, that is per clean-ADC
fingerprint and per process, and is dropped with it.  It holds at most one
entry per defect evaluated, each one read-only invariance x cycle matrix
plus its key (about 2.2 kB on the paper's device).  Many defects perturb
their block identically, and LWRS draws with replacement, so entries are
far fewer than defects: the 2775 defects of the paper's device collapse to
665 distinct stage outputs.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from ..adc.sar_adc import SarAdc
from ..core.controller import resolve_detection
from ..core.golden_trace import (CODE_STAGE_SIGNALS, RS_SIGNALS,
                                 build_golden_trace, operating_columns,
                                 output_columns, residual_columns,
                                 sc_array_inputs)
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

#: The :class:`~repro.core.golden_trace.GoldenTrace` field that holds each
#: stage's output.
STAGE_TRACE_FIELD: Dict[str, str] = {
    "op": "op", "vcm": "vcm", "sub1": "sub1", "sub2": "sub2", "sc": "sc",
    "pre": "pre", "latch": "ql", "rs": "q",
}


class BatchedDefectEvaluator:
    """Evaluates defects of one campaign against a shared golden trace.

    The evaluator belongs to one :class:`~repro.defects.simulator.
    DefectCampaign` (it reads the ADC, stimulus, deltas and checking mode
    from it) and assumes the campaign's single-defect convention: at most one
    device is defective while :meth:`evaluate` runs.
    """

    def __init__(self, adc: SarAdc, stimulus: SymBistStimulus,
                 deltas: Dict[str, float], mode: CheckingMode,
                 stop_on_detection: bool,
                 invariances: Optional[Sequence[Invariance]] = None) -> None:
        self.adc = adc
        self.stimulus = stimulus
        self.mode = mode
        self.stop_on_detection = stop_on_detection
        self.invariances = list(invariances) if invariances is not None \
            else build_invariances()
        self.set_deltas(deltas)
        self.golden = build_golden_trace(adc, stimulus, self.invariances)
        self._golden_residuals = np.array(
            [self.golden.residuals[inv.name] for inv in self.invariances])
        self._golden_residuals.flags.writeable = False
        #: Settled residual matrix (invariances x cycles, read-only) of each
        #: distinct defective-stage output seen so far, by :func:`stage_key`.
        self.memo: Dict[Tuple[str, bytes], np.ndarray] = {}

    def set_deltas(self, deltas: Dict[str, float]) -> None:
        """Rebuild the comparison windows for a new delta table.

        The golden trace is defect-free signal data -- independent of the
        comparison windows -- so per-block delta overrides (block-study
        graphs refresh the campaign's deltas per task) only need the
        windows rebuilt, never a re-simulation.
        """
        self.deltas = dict(deltas)
        checkers = [WindowComparator(name=inv.name, delta=deltas[inv.name])
                    for inv in self.invariances]
        # One row per invariance: the window rule of
        # WindowComparator.check_samples as column vectors.
        self._centers = np.array([[c.center] for c in checkers])
        self._offsets = np.array([[c.offset] for c in checkers])
        self._deltas = np.array([[c.delta] for c in checkers])

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
        residuals = self._settled_residuals(LOCAL_STAGE[defect.block_path])
        outside = np.abs(residuals - self._centers - self._offsets) \
            > self._deltas
        passed, first, _, cycles_run = resolve_detection(
            self.mode, outside, self.stop_on_detection)
        if first is None:
            return (not passed, None, None, cycles_run)
        return (not passed, self.invariances[first[0]].name, first[1],
                cycles_run)

    def _settled_residuals(self, stage: str) -> np.ndarray:
        """The read-only invariance x cycle residual matrix of a defect
        local to ``stage``.

        Only the defective stage itself is unconditionally recomputed (its
        netlist carries the defect), on the golden values of its inputs.
        When its output is equal to the golden one, every signal is too and
        the golden residuals are returned.  Otherwise the residuals are a
        pure function of that output, so they are looked up in
        :attr:`memo` by :func:`stage_key` and propagated downstream only on
        a miss.
        """
        golden = self.golden
        output = self._defective_output(stage)
        if output == getattr(golden, STAGE_TRACE_FIELD[stage]):
            return self._golden_residuals
        key = stage_key(stage, output)
        residuals = self.memo.get(key)
        if residuals is None:
            residuals = self._propagate(stage, output)
            residuals.flags.writeable = False
            self.memo[key] = residuals
        return residuals

    def _defective_output(self, stage: str):
        """The defective ``stage`` recomputed on its golden inputs (every
        stage upstream of it is clean)."""
        golden = self.golden
        cell = self.adc.sarcell
        codes = range(self.stimulus.n_codes)
        if stage == "op":
            return self.adc.operating_point(
                input_diff=self.stimulus.input_diff,
                input_cm=self.stimulus.input_cm)
        if stage == "vcm":
            return cell.vcm_generator.evaluate(golden.op.vbg)
        if stage == "sub1":
            return cell.dac.subdac1.sweep(codes, golden.op.vref)
        if stage == "sub2":
            return cell.dac.subdac2.sweep(codes, golden.op.vref)
        if stage == "sc":
            return cell.dac.sc_array.sweep(sc_array_inputs(
                self.adc.dut, golden.op, golden.vcm, golden.sub1,
                golden.sub2, codes))
        if stage == "pre":
            return cell.comparator.preamplifier.sweep(
                [(out.dac_p, out.dac_m) for out in golden.sc],
                golden.op.ibias, cell.comparator.offset_compensation)
        if stage == "latch":
            return cell.comparator.latch.sweep(
                [(out.lin_p, out.lin_m) for out in golden.pre])
        return cell.comparator.rs_latch.replay(
            [golden.ql[c] for c in golden.cycle_codes.tolist()])

    def _propagate(self, stage: str, output) -> np.ndarray:
        """Residual matrix of a defective ``stage`` whose ``output`` differs
        from the golden trace.

        Every downstream stage has a *clean* netlist and is a pure function
        of its inputs, so it is recomputed only for the codes whose inputs
        actually differ from the golden trace -- where the inputs are
        bit-equal, recomputing would reproduce the golden value exactly, and
        the golden value is reused instead.  The per-code/per-cycle
        ``changed`` flags below track exactly that input-difference
        condition.  The changed stages' signal columns then replace the
        golden ones and every invariance is evaluated once over the columns.
        """
        golden = self.golden
        adc = self.adc
        cell = adc.sarcell
        stimulus = self.stimulus
        n_codes = stimulus.n_codes
        codes = range(n_codes)
        no_change = [False] * n_codes

        op_changed = stage == "op"
        op = output if op_changed else golden.op

        if stage == "vcm":
            vcm = output
        elif op_changed:
            vcm = cell.vcm_generator.evaluate(op.vbg)
        else:
            vcm = golden.vcm
        vcm_changed = vcm != golden.vcm

        if stage == "sub1":
            sub1, changed1 = _merge(golden.sub1, codes, output)
        elif op_changed:
            sub1, changed1 = _merge(golden.sub1, codes,
                                    cell.dac.subdac1.sweep(codes, op.vref))
        else:
            sub1, changed1 = golden.sub1, no_change
        if stage == "sub2":
            sub2, changed2 = _merge(golden.sub2, codes, output)
        elif op_changed:
            sub2, changed2 = _merge(golden.sub2, codes,
                                    cell.dac.subdac2.sweep(codes, op.vref))
        else:
            sub2, changed2 = golden.sub2, no_change

        if stage == "sc":
            sc, changed_sc = _merge(golden.sc, codes, output)
        else:
            sc_codes = [c for c in codes if op_changed or vcm_changed
                        or changed1[c] or changed2[c]]
            swept = cell.dac.sc_array.sweep(
                sc_array_inputs(adc.dut, op, vcm, sub1, sub2, sc_codes)) \
                if sc_codes else []
            sc, changed_sc = _merge(golden.sc, sc_codes, swept)

        if stage == "pre":
            pre, changed_pre = _merge(golden.pre, codes, output)
        else:
            pre_codes = [c for c in codes if op_changed or changed_sc[c]]
            swept = cell.comparator.preamplifier.sweep(
                [(sc[c].dac_p, sc[c].dac_m) for c in pre_codes], op.ibias,
                cell.comparator.offset_compensation) if pre_codes else []
            pre, changed_pre = _merge(golden.pre, pre_codes, swept)

        if stage == "latch":
            ql, ql_changed = _merge(golden.ql, codes, output)
        else:
            ql_codes = [c for c in codes if changed_pre[c]]
            swept = cell.comparator.latch.sweep(
                [(pre[c].lin_p, pre[c].lin_m) for c in ql_codes]) \
                if ql_codes else []
            ql, ql_changed = _merge(golden.ql, ql_codes, swept)

        # The RS latch is the only stateful element.  It must be replayed
        # from reset when its own netlist is defective or any of its inputs
        # changed; otherwise the replay would reproduce the golden per-cycle
        # outputs exactly and they are reused instead.
        cycle_codes = golden.cycle_codes
        if stage == "rs":
            q = output
        elif any(ql_changed):
            q = cell.comparator.rs_latch.replay(
                [ql[c] for c in cycle_codes.tolist()])
        else:
            q = golden.q
        q_changed = q != golden.q

        columns = dict(golden.columns)
        if op_changed or vcm_changed:
            columns.update(operating_columns(adc.dut, op, vcm,
                                             stimulus.n_cycles))
        changed = {"sub1": (sub1, changed1), "sub2": (sub2, changed2),
                   "sc": (sc, changed_sc), "pre": (pre, changed_pre),
                   "ql": (ql, ql_changed)}
        for name, (outputs, flags) in changed.items():
            if any(flags):
                columns.update(output_columns(
                    outputs, CODE_STAGE_SIGNALS[name], cycle_codes))
        if q_changed:
            columns.update(output_columns(q, RS_SIGNALS))
        residuals = residual_columns(self.invariances, columns)
        return np.array([residuals[inv.name] for inv in self.invariances])


def _merge(golden: List, codes: Sequence[int], swept: Sequence
           ) -> Tuple[List, List[bool]]:
    """The golden per-code outputs with each code of ``codes`` replaced by
    its ``swept`` output, and per-code flags of which outputs changed."""
    outputs = list(golden)
    changed = [False] * len(golden)
    for c, out in zip(codes, swept):
        outputs[c] = out
        changed[c] = out != golden[c]
    return outputs, changed


def _float_values(output) -> List:
    """Every value of a stage output, in order: each field of a dataclass
    (:func:`dataclasses.fields`; a stage's per-code or per-cycle outputs
    share one type) and each item of a list, flattened."""
    if is_dataclass(output):
        output = [output]
    elif not isinstance(output, list):
        return [output]
    if output and is_dataclass(output[0]):
        names = [f.name for f in fields(output[0])]
        output = [getattr(item, name) for item in output for name in names]
    values: List = []
    for value in output:
        if isinstance(value, list):
            values.extend(_float_values(value))
        else:
            values.append(value)
    return values


def stage_key(stage: str, output) -> Tuple[str, bytes]:
    """Memo key of one stage output: the stage name and the float64 bytes
    of every value of the output (:func:`_float_values`).

    Two outputs get the same key only when they are bit-equal, so ``-0.0``
    and ``0.0`` -- equal as floats -- get different keys and cost at most a
    memo miss, never a wrong hit.
    """
    return stage, np.array(_float_values(output), dtype=np.float64).tobytes()
