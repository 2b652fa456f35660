"""The golden trace: one staged, column-wise SymBIST sweep of an ADC state.

The full SymBIST run (:class:`~repro.core.controller.SymBistController`)
evaluates the whole ADC once per clock cycle through
:meth:`~repro.adc.sar_adc.SarAdc.evaluate_test_cycle`.  The golden trace
computes the same settled signals *staged*.  The pipeline is declared once,
in :data:`STAGES`: the operating point and the Vcm level once per trace,
one block ``sweep`` per stage over the distinct counter codes (sub-DACs, SC
array, pre-amplifier, comparator latch), and the RS latch -- the only
stateful element -- replayed per cycle from reset.  :func:`stage_output`
evaluates one stage and :func:`sweep_stages` walks the table.

Every observed signal is then one float64 column over all cycles, and each
invariance is evaluated once per trace on those columns (the residual
functions of :mod:`repro.core.invariance` work on floats and arrays alike,
with the same float arithmetic).  Columns and residuals are bit-identical to
the per-cycle run, so the trace is the one residual kernel of the repository:

* Monte Carlo window calibration (:mod:`repro.core.calibration`) takes each
  defect-free instance's residuals from :func:`build_golden_trace`;
* batched defect evaluation (:mod:`repro.defects.batching`) keeps the trace
  of the clean ADC, evaluates the defective block's stage on its golden
  inputs with :func:`stage_output`, and walks the stages downstream of it
  with :func:`sweep_stages`, re-evaluating only the codes whose inputs
  changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Dict, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from ..adc.sar_adc import OperatingPoint, SarAdc
from ..adc.sc_array import ScArrayInputs
from .invariance import Invariance, build_invariances
from .stimulus import SymBistStimulus


class Stage(NamedTuple):
    """One pipeline stage: one output ``per`` ``"trace"``, ``"code"``
    (counter code) or ``"cycle"`` (clock cycle); the stages it reads
    (``inputs``); the analog ``blocks`` local to it, whose defects change
    only this stage and the stages that read it, directly or not; and the
    ``(signal, output field)`` columns of a per-code or per-cycle stage
    (the per-trace stages give the :func:`operating_columns`)."""

    per: str
    inputs: Tuple[str, ...]
    blocks: Tuple[str, ...]
    signals: Tuple[Tuple[str, str], ...] = ()


#: The staged pipeline in evaluation order; each name is also the
#: :class:`GoldenTrace` field that holds the stage's output.
STAGES: Dict[str, Stage] = {
    "op": Stage("trace", (), ("bandgap", "reference_buffer")),
    "vcm": Stage("trace", ("op",), ("vcm_generator",)),
    "sub1": Stage("code", ("op",), ("subdac1",),
                  (("M+", "out_p"), ("M-", "out_n"))),
    "sub2": Stage("code", ("op",), ("subdac2",),
                  (("L+", "out_p"), ("L-", "out_n"))),
    "sc": Stage("code", ("op", "vcm", "sub1", "sub2"), ("sc_array",),
                (("DAC+", "dac_p"), ("DAC-", "dac_m"))),
    "pre": Stage("code", ("op", "sc"),
                 ("preamplifier", "offset_compensation"),
                 (("LIN+", "lin_p"), ("LIN-", "lin_m"))),
    "ql": Stage("code", ("pre",), ("comparator_latch",),
                (("QL+", "q_p"), ("QL-", "q_m"))),
    "q": Stage("cycle", ("ql",), ("rs_latch",),
               (("Q+", "q_p"), ("Q-", "q_m"))),
}

#: The stage each analog block is local to.
LOCAL_STAGE: Dict[str, str] = {block: name for name, stage in STAGES.items()
                               for block in stage.blocks}


@dataclass
class GoldenTrace:
    """Settled staged trace of one (ADC state, stimulus) pair.

    One field per stage of :data:`STAGES`: per-*code* lists hold one block
    output per distinct counter code; ``q`` holds one RS-latch output per
    clock cycle, and ``cycle_codes`` maps each cycle to its code (they
    differ when the stimulus replays the counter, ``repeats > 1``).
    ``columns`` holds every observed signal and ``residuals`` every
    invariance as one float64 array over the cycles.
    """

    op: OperatingPoint
    vcm: float
    sub1: List  # SubDacOutput per code
    sub2: List  # SubDacOutput per code
    sc: List    # ScArrayOutput per code
    pre: List   # PreampOutput per code
    ql: List    # LatchOutput per code
    q: List     # LatchOutput per cycle (RS latch replay)
    cycle_codes: np.ndarray
    columns: Dict[str, np.ndarray]
    residuals: Dict[str, np.ndarray]

    def outputs(self) -> Dict[str, Any]:
        """Every stage's output, by stage name."""
        return {name: getattr(self, name) for name in STAGES}


def _cycle_codes(stimulus: SymBistStimulus) -> np.ndarray:
    return np.arange(stimulus.n_cycles) % stimulus.n_codes


def stage_output(stage: str, adc: SarAdc, stimulus: SymBistStimulus,
                 inputs: Mapping[str, Any],
                 codes: Optional[Sequence[int]] = None) -> Any:
    """The output of ``stage`` in ``adc``'s current state, through its
    blocks' own ``evaluate``/``sweep``/``replay``.

    ``inputs`` holds the outputs of the stage's input stages, by stage
    name.  A per-code stage is evaluated at ``codes`` (every counter code
    when ``None``) and returns one output per code in that order; the RS
    latch is replayed from reset over every cycle.
    """
    cell = adc.sarcell
    if codes is None:
        codes = range(stimulus.n_codes)
    if stage == "op":
        return adc.operating_point(input_diff=stimulus.input_diff,
                                   input_cm=stimulus.input_cm)
    if stage == "vcm":
        return cell.vcm_generator.evaluate(inputs["op"].vbg)
    if stage in ("sub1", "sub2"):
        subdac = cell.dac.subdac1 if stage == "sub1" else cell.dac.subdac2
        return subdac.sweep(codes, inputs["op"].vref)
    if stage == "sc":
        op, sub1, sub2 = inputs["op"], inputs["sub1"], inputs["sub2"]
        vref_mid = op.vref[adc.dut.mid_tap]
        return cell.dac.sc_array.sweep([
            ScArrayInputs(in_p=op.in_p, in_m=op.in_m,
                          m_p=sub1[c].out_p, m_m=sub1[c].out_n,
                          l_p=sub2[c].out_p, l_m=sub2[c].out_n,
                          vcm=inputs["vcm"], vref_mid=vref_mid)
            for c in codes])
    if stage == "pre":
        sc = inputs["sc"]
        return cell.comparator.preamplifier.sweep(
            [(sc[c].dac_p, sc[c].dac_m) for c in codes], inputs["op"].ibias,
            cell.comparator.offset_compensation)
    if stage == "ql":
        pre = inputs["pre"]
        return cell.comparator.latch.sweep(
            [(pre[c].lin_p, pre[c].lin_m) for c in codes])
    ql = inputs["ql"]
    return cell.comparator.rs_latch.replay(
        [ql[c] for c in _cycle_codes(stimulus).tolist()])


def sweep_stages(adc: SarAdc, stimulus: SymBistStimulus,
                 base: Optional[GoldenTrace] = None,
                 stage: Optional[str] = None, output: Any = None
                 ) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Walk :data:`STAGES` in order; return every stage's output and every
    signal column.

    Without ``base``, every stage is evaluated on every code.  With
    ``base``, ``stage`` takes ``output`` and every other stage keeps its
    ``base`` output except where its inputs differ from ``base`` (float
    ``==``): a per-code stage is re-evaluated at those codes only, any
    other stage whole.  Only the changed stages' columns replace the
    ``base`` ones.  Every block is a pure function of its inputs and its own
    netlist, so with clean netlists downstream of ``stage`` this equals the
    full sweep of the ADC, bit for bit.
    """
    every_code = range(stimulus.n_codes)
    index = _cycle_codes(stimulus)
    outputs: Dict[str, Any] = {}
    # The codes of each stage whose output differs from ``base``.
    changed: Dict[str, Sequence[int]] = {}
    columns = {} if base is None else dict(base.columns)
    for name, (per, inputs, _, signals) in STAGES.items():
        old = None if base is None else getattr(base, name)
        codes: Sequence[int] = every_code
        if name == stage:
            value = output
        elif base is None:
            value = stage_output(name, adc, stimulus, outputs)
        else:
            codes = sorted(set().union(*(changed[i] for i in inputs)))
            if not codes:
                value = old
            elif per == "code":
                value = list(old)
                for code, out in zip(codes, stage_output(
                        name, adc, stimulus, outputs, codes)):
                    value[code] = out
            else:
                value = stage_output(name, adc, stimulus, outputs)
        outputs[name] = value
        if base is None:
            changed[name] = every_code
        elif per == "code":
            changed[name] = [c for c in codes if value[c] != old[c]]
        else:
            changed[name] = every_code if value != old else ()
        if signals and changed[name]:
            columns.update(output_columns(
                value, signals, index if per == "code" else None))
    if changed["op"] or changed["vcm"]:
        columns.update(operating_columns(adc.dut, outputs["op"],
                                         outputs["vcm"], stimulus.n_cycles))
    return outputs, columns


def operating_columns(dut, op: OperatingPoint, vcm: float,
                      n_cycles: int) -> Dict[str, np.ndarray]:
    """The cycle-independent signals as constant columns.  The reference
    taps and the supply are the device's (``VREF32`` is the top tap and
    ``VREF16`` the mid tap whatever the ladder length), as in
    :meth:`~repro.adc.sar_adc.SarAdc.evaluate_test_cycle`."""
    levels = (("VCM", vcm), ("VREF32", op.vref[-1]),
              ("VREF16", op.vref[dut.mid_tap]), ("VBG", op.vbg),
              ("IBIAS", op.ibias), ("IN+", op.in_p), ("IN-", op.in_m),
              ("VDD", dut.vdd))
    return {name: np.full(n_cycles, value, dtype=float)
            for name, value in levels}


def output_columns(outputs: Sequence, fields: Sequence[Tuple[str, str]],
                   index: Optional[np.ndarray] = None
                   ) -> Dict[str, np.ndarray]:
    """One column per ``(signal, output field)``; ``index`` maps cycles to
    entries of a per-code ``outputs`` list."""
    columns = {}
    for name, attr in fields:
        column = np.array([getattr(out, attr) for out in outputs],
                          dtype=float)
        columns[name] = column if index is None else column[index]
    return columns


def residual_columns(invariances: Sequence[Invariance],
                     columns: Dict[str, np.ndarray]
                     ) -> Dict[str, np.ndarray]:
    """Every invariance evaluated once over the signal columns."""
    return {inv.name: np.asarray(inv.residual(columns), dtype=float)
            for inv in invariances}


def build_golden_trace(adc: SarAdc, stimulus: SymBistStimulus,
                       invariances: Optional[Sequence[Invariance]] = None
                       ) -> GoldenTrace:
    """Simulate ``adc`` in its current state once, staged, and record it.

    :func:`sweep_stages` runs each block's ``evaluate``/``sweep`` once per
    distinct counter code and replays the RS latch per cycle from reset, so
    every column and residual is bit-identical to a full
    :class:`~repro.core.controller.SymBistController` run of the same state.
    """
    outputs, columns = sweep_stages(adc, stimulus)
    return GoldenTrace(**outputs, cycle_codes=_cycle_codes(stimulus),
                       columns=columns,
                       residuals=residual_columns(
                           invariances if invariances is not None
                           else build_invariances(), columns))
