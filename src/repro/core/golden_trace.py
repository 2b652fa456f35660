"""The golden trace: one staged, column-wise SymBIST sweep of an ADC state.

The full SymBIST run (:class:`~repro.core.controller.SymBistController`)
evaluates the whole ADC once per clock cycle through
:meth:`~repro.adc.sar_adc.SarAdc.evaluate_test_cycle`.  The golden trace
computes the same settled signals *staged*: the operating point and the Vcm
level once, then one block ``sweep`` per stage over the distinct counter
codes (sub-DACs, SC array, pre-amplifier, comparator latch), and the RS
latch -- the only stateful element -- replayed per cycle from reset.

Every observed signal is then one float64 column over all cycles, and each
invariance is evaluated once per trace on those columns (the residual
functions of :mod:`repro.core.invariance` work on floats and arrays alike,
with the same float arithmetic).  Columns and residuals are bit-identical to
the per-cycle run, so the trace is the one residual kernel of the repository:

* Monte Carlo window calibration (:mod:`repro.core.calibration`) takes each
  defect-free instance's residuals from :func:`build_golden_trace`;
* batched defect evaluation (:mod:`repro.defects.batching`) keeps the trace
  of the clean ADC and recomputes, per defect, only the stages downstream of
  the defective block, then re-assembles the changed columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..adc.sar_adc import OperatingPoint, SarAdc
from ..adc.sc_array import ScArrayInputs
from .invariance import Invariance, build_invariances
from .stimulus import SymBistStimulus

#: Signal columns of each per-code stage output: ``(signal, output field)``.
CODE_STAGE_SIGNALS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "sub1": (("M+", "out_p"), ("M-", "out_n")),
    "sub2": (("L+", "out_p"), ("L-", "out_n")),
    "sc": (("DAC+", "dac_p"), ("DAC-", "dac_m")),
    "pre": (("LIN+", "lin_p"), ("LIN-", "lin_m")),
    "ql": (("QL+", "q_p"), ("QL-", "q_m")),
}

#: Signal columns of the per-cycle RS-latch replay.
RS_SIGNALS: Tuple[Tuple[str, str], ...] = (("Q+", "q_p"), ("Q-", "q_m"))


@dataclass
class GoldenTrace:
    """Settled staged trace of one (ADC state, stimulus) pair.

    Per-*code* lists hold one block output per distinct counter code; ``q``
    holds one RS-latch output per clock cycle, and ``cycle_codes`` maps each
    cycle to its code (they differ when the stimulus replays the counter,
    ``repeats > 1``).  ``columns`` holds every observed signal and
    ``residuals`` every invariance as one float64 array over the cycles.
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


def sc_array_inputs(dut, op: OperatingPoint, vcm: float, sub1, sub2,
                    codes: Sequence[int]) -> List[ScArrayInputs]:
    """The SC-array inputs of each counter code in ``codes``."""
    vref_mid = op.vref[dut.mid_tap]
    return [ScArrayInputs(in_p=op.in_p, in_m=op.in_m,
                          m_p=sub1[c].out_p, m_m=sub1[c].out_n,
                          l_p=sub2[c].out_p, l_m=sub2[c].out_n,
                          vcm=vcm, vref_mid=vref_mid) for c in codes]


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

    Each block's ``evaluate``/``sweep`` runs once per distinct counter code
    and the RS latch is replayed per cycle from reset, so every column and
    residual is bit-identical to a full
    :class:`~repro.core.controller.SymBistController` run of the same state.
    """
    cell = adc.sarcell
    op = adc.operating_point(input_diff=stimulus.input_diff,
                             input_cm=stimulus.input_cm)
    vcm = cell.vcm_generator.evaluate(op.vbg)
    codes = range(stimulus.n_codes)
    sub1 = cell.dac.subdac1.sweep(codes, op.vref)
    sub2 = cell.dac.subdac2.sweep(codes, op.vref)
    sc = cell.dac.sc_array.sweep(
        sc_array_inputs(adc.dut, op, vcm, sub1, sub2, codes))
    pre = cell.comparator.preamplifier.sweep(
        [(out.dac_p, out.dac_m) for out in sc], op.ibias,
        cell.comparator.offset_compensation)
    ql = cell.comparator.latch.sweep([(out.lin_p, out.lin_m) for out in pre])
    cycle_codes = np.arange(stimulus.n_cycles) % stimulus.n_codes
    q = cell.comparator.rs_latch.replay([ql[c] for c in cycle_codes.tolist()])

    columns = operating_columns(adc.dut, op, vcm, stimulus.n_cycles)
    for stage, outputs in (("sub1", sub1), ("sub2", sub2), ("sc", sc),
                           ("pre", pre), ("ql", ql)):
        columns.update(output_columns(outputs, CODE_STAGE_SIGNALS[stage],
                                      cycle_codes))
    columns.update(output_columns(q, RS_SIGNALS))
    return GoldenTrace(op=op, vcm=vcm, sub1=sub1, sub2=sub2, sc=sc, pre=pre,
                       ql=ql, q=q, cycle_codes=cycle_codes, columns=columns,
                       residuals=residual_columns(
                           invariances if invariances is not None
                           else build_invariances(), columns))
