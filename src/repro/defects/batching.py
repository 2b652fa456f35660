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
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, TYPE_CHECKING

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
        settled = self._settled_residuals(LOCAL_STAGE[defect.block_path])
        residuals = np.array([settled[inv.name] for inv in self.invariances])
        outside = np.abs(residuals - self._centers - self._offsets) \
            > self._deltas
        passed, first, _, cycles_run = resolve_detection(
            self.mode, outside, self.stop_on_detection)
        if first is None:
            return (not passed, None, None, cycles_run)
        return (not passed, self.invariances[first[0]].name, first[1],
                cycles_run)

    def _settled_residuals(self, stage: str) -> Dict[str, np.ndarray]:
        """Per-invariance settled residual columns for a defect local to
        ``stage``.

        Only the defective stage itself is unconditionally recomputed (its
        netlist carries the defect).  Every downstream stage has a *clean*
        netlist and is a pure function of its inputs, so it is recomputed
        only for the codes whose inputs actually differ from the golden
        trace -- where the inputs are bit-equal, recomputing would reproduce
        the golden value exactly, and the golden value is reused instead.
        The per-code/per-cycle ``changed`` flags below track exactly that
        input-difference condition.  When no stage output changed, the
        golden residuals are returned as they are; otherwise the changed
        stages' signal columns replace the golden ones and every invariance
        is evaluated once over the columns.
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
                sc_array_inputs(adc.dut, op, vcm, sub1, sub2, sc_codes))
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
        cycle_codes = golden.cycle_codes
        q_changed = False
        if stage == "rs" or any(ql_changed):
            q = cell.comparator.rs_latch.replay(
                [ql[c] for c in cycle_codes.tolist()])
            q_changed = q != golden.q

        changed = {"sub1": any(changed1), "sub2": any(changed2),
                   "sc": any(changed_sc), "pre": any(changed_pre),
                   "ql": any(ql_changed)}
        if not (op_changed or vcm_changed or q_changed
                or any(changed.values())):
            # Every signal is bit-equal to the golden trace, so every
            # invariance residual is too.
            return golden.residuals
        columns = dict(golden.columns)
        if op_changed or vcm_changed:
            columns.update(operating_columns(adc.dut, op, vcm,
                                             stimulus.n_cycles))
        outputs = {"sub1": sub1, "sub2": sub2, "sc": sc, "pre": pre,
                   "ql": ql}
        for name, stage_changed in changed.items():
            if stage_changed:
                columns.update(output_columns(
                    outputs[name], CODE_STAGE_SIGNALS[name], cycle_codes))
        if q_changed:
            columns.update(output_columns(q, RS_SIGNALS))
        return residual_columns(self.invariances, columns)
