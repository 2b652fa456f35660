"""Batched defect evaluation against the golden trace of the clean ADC.

The full re-simulation of a defect sweeps the whole behavioral ADC once per
clock cycle, although a single injected defect only perturbs one block and
its downstream cone.  The batched evaluator runs defects on the repository's
one staged residual kernel instead, the golden trace
(:mod:`repro.core.golden_trace`), which Monte Carlo window calibration uses
for every defect-free instance too:

* the evaluator keeps the golden trace of the clean ADC per stimulus: the
  settled output of every pipeline stage (one float64 array per per-code or
  per-cycle stage, one row per signal), every signal as one float64 column
  and every invariance residual as one column;
* a defect re-evaluates its block's stage
  (:data:`~repro.core.golden_trace.LOCAL_STAGE`) on the golden inputs and
  walks the stages downstream of it
  (:func:`~repro.core.golden_trace.sweep_stages`) at only the codes whose
  inputs changed, with the *same* block methods and float arithmetic; a
  block with no stage is an error that names it;
* defects are collapsed by their effect: the residual matrix depends only
  on the output of the defective stage, so it is memoised by that output
  (:func:`stage_key`) and a defect whose stage output was seen before
  skips the downstream walk;
* all window checks are one array comparison over the invariance x cycle
  residual matrix, and :func:`~repro.core.controller.resolve_detection`
  reads the first detection of the checking schedule from it.

Bit-identity holds because every block model is a pure function of its inputs
and its own netlist/parameter state: stages upstream of and parallel to the
defective block see identical inputs and a clean netlist, so recomputing them
would reproduce the golden values exactly -- reusing the golden values is
therefore indistinguishable from a full re-simulation.

The residual memo is exact for the same reason.  Every stage downstream of
the defective block has a clean netlist, so the residual matrix is a pure
function of the defective stage's output.  Keys are the raw float64 bytes
of that output (an array output's own ``tobytes()``), never float
equality: two defects share an entry only when their stage outputs are
bit-equal, and ``-0.0`` against ``0.0`` only costs a miss.  Entries hold
residuals, not outcomes, so they survive
:meth:`BatchedDefectEvaluator.set_deltas`; the window check runs per
defect.  The memo lives on the evaluator, that is per clean-ADC
fingerprint and per process, and is dropped with it.  It holds at most one
entry per defect evaluated, each one read-only invariance x cycle matrix
plus its key (about 2.2 kB on the paper's device).  Many defects perturb
their block identically, and LWRS draws with replacement, so entries are
far fewer than defects: the 2775 defects of the paper's device collapse to
665 distinct stage outputs.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from ..adc.sar_adc import OperatingPoint, SarAdc
from ..circuit.errors import DefectError
from ..core.controller import resolve_detection
from ..core.golden_trace import (LOCAL_STAGE, build_golden_trace,
                                 output_differs, residual_columns,
                                 stage_output, sweep_stages)
from ..core.invariance import Invariance, build_invariances
from ..core.stimulus import SymBistStimulus
from ..core.test_time import CheckingMode
from ..core.window_comparator import WindowComparator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (simulator imports us)
    from .model import Defect

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

    def evaluate(self, defect: "Defect"
                 ) -> Tuple[bool, Optional[str], Optional[int], int]:
        """Evaluate one *injected* defect against the golden trace.

        Returns ``(detected, detecting_invariance, detection_cycle,
        cycles_run)``, bit-identical to a full
        :class:`~repro.core.controller.SymBistController` run.  Raises
        :class:`~repro.circuit.errors.DefectError` naming the block when
        the defect's block has no stage in :data:`LOCAL_STAGE`.

        The caller is responsible for having the defect injected into the
        ADC's netlists while this method runs.
        """
        stage = LOCAL_STAGE.get(defect.block_path)
        if stage is None:
            raise DefectError(
                f"block {defect.block_path!r} of defect {defect.defect_id!r} "
                f"is local to no stage of the golden trace")
        residuals = self._settled_residuals(stage)
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
        :attr:`memo` by :func:`stage_key` and, on a miss, the stages
        downstream of it are walked by
        :func:`~repro.core.golden_trace.sweep_stages`.
        """
        golden = self.golden
        output = stage_output(stage, self.adc, self.stimulus,
                              golden.outputs())
        if not output_differs(output, getattr(golden, stage)):
            return self._golden_residuals
        key = stage_key(stage, output)
        residuals = self.memo.get(key)
        if residuals is None:
            _, columns = sweep_stages(self.adc, self.stimulus, golden, stage,
                                      output)
            by_name = residual_columns(self.invariances, columns)
            residuals = np.array([by_name[inv.name]
                                  for inv in self.invariances])
            residuals.flags.writeable = False
            self.memo[key] = residuals
        return residuals


def stage_key(stage: str, output) -> Tuple[str, bytes]:
    """Memo key of one stage output: the stage name and the float64 bytes
    of the output -- an array output's own bytes (row by row), the Vcm
    level, or every field of the operating point in order (``vref`` tap by
    tap).

    Two outputs get the same key only when they are bit-equal, so ``-0.0``
    and ``0.0`` -- equal as floats -- get different keys and cost at most a
    memo miss, never a wrong hit.
    """
    if isinstance(output, OperatingPoint):
        output = [output.vbg, output.ibias, *output.vref, output.in_p,
                  output.in_m]
    return stage, np.asarray(output, dtype=np.float64).tobytes()
