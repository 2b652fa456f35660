"""The golden trace: one staged, column-wise SymBIST sweep of an ADC state.

The full SymBIST run (:class:`~repro.core.controller.SymBistController`)
evaluates the whole ADC once per clock cycle through
:meth:`~repro.adc.sar_adc.SarAdc.evaluate_test_cycle`.  The golden trace
computes the same settled signals *staged*.  The pipeline is declared once,
in :data:`STAGES`: the operating point and the Vcm level once per trace,
one block column kernel per stage over the distinct counter codes
(sub-DACs, SC array, pre-amplifier, comparator latch), and the RS latch --
the only stateful element -- replayed per cycle from reset.
:func:`stage_output` evaluates one stage, calling its block's
``resolve()`` and column kernel directly, and :func:`sweep_stages` walks
the table.

Every per-code or per-cycle stage output is one float64 array, one row per
``(signal, field)`` of the stage's ``signals`` and one column per code or
cycle, so a stage reads its inputs as array rows and a signal column is a
row gathered over the cycles.  Each invariance is evaluated once per trace
on those columns (the residual functions of :mod:`repro.core.invariance`
work on floats and arrays alike, with the same float arithmetic).  Columns
and residuals are bit-identical to the per-cycle run, so the trace is the
one residual kernel of the repository:

* Monte Carlo window calibration (:mod:`repro.core.calibration`) takes each
  defect-free instance's residuals from :func:`build_golden_trace`;
* batched defect evaluation (:mod:`repro.defects.batching`) keeps the trace
  of the clean ADC, evaluates the defective block's stage on its golden
  inputs with :func:`stage_output`, and walks the stages downstream of it
  with :func:`sweep_stages`, re-evaluating only the codes whose inputs
  changed (index arrays, found by float ``!=`` on the stage arrays).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Dict, Mapping, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from ..adc.sar_adc import OperatingPoint, SarAdc
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

    One field per stage of :data:`STAGES`.  ``op`` is the operating point
    and ``vcm`` the Vcm level; every other stage's output is one float64
    array with one row per ``(signal, field)`` of its ``signals``, in that
    order, and one column per counter code (``sub1`` .. ``ql``) or per clock
    cycle (``q``, the RS-latch replay).  ``cycle_codes`` maps each cycle to
    its code (they differ when the stimulus replays the counter,
    ``repeats > 1``).  ``columns`` holds every observed signal and
    ``residuals`` every invariance as one float64 array over the cycles.
    """

    op: OperatingPoint
    vcm: float
    sub1: np.ndarray
    sub2: np.ndarray
    sc: np.ndarray
    pre: np.ndarray
    ql: np.ndarray
    q: np.ndarray
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
                 codes: Optional[np.ndarray] = None) -> Any:
    """The output of ``stage`` in ``adc``'s current state, through its
    blocks' own ``resolve()`` and column kernels.

    ``inputs`` holds the outputs of the stage's input stages, by stage
    name.  A per-code stage is evaluated at ``codes`` (an int64 column;
    every counter code when ``None``) and returns one array column per code
    in that order; the RS latch is replayed from reset over every cycle.
    """
    cell = adc.sarcell
    if stage == "op":
        return adc.operating_point(input_diff=stimulus.input_diff,
                                   input_cm=stimulus.input_cm)
    if stage == "vcm":
        return cell.vcm_generator.evaluate(inputs["op"].vbg)
    if codes is None:
        codes = np.arange(stimulus.n_codes)
    if stage in ("sub1", "sub2"):
        subdac = cell.dac.subdac1 if stage == "sub1" else cell.dac.subdac2
        return np.array(subdac.columns(subdac.resolve(), codes,
                                       inputs["op"].vref))
    if stage == "sc":
        op, sub1, sub2 = inputs["op"], inputs["sub1"], inputs["sub2"]
        sc_array = cell.dac.sc_array
        return np.array(sc_array.columns(
            sc_array.resolve(), np.full(len(codes), op.in_p),
            np.full(len(codes), op.in_m), sub1[0, codes], sub1[1, codes],
            sub2[0, codes], sub2[1, codes], inputs["vcm"],
            op.vref[adc.dut.mid_tap]))
    comparator = cell.comparator
    if stage == "pre":
        sc, preamplifier = inputs["sc"], comparator.preamplifier
        return np.array(preamplifier.columns(
            preamplifier.resolve(inputs["op"].ibias,
                                 comparator.offset_compensation),
            sc[0, codes], sc[1, codes]))
    if stage == "ql":
        pre, latch = inputs["pre"], comparator.latch
        return np.array(latch.columns(latch.resolve(), pre[0, codes],
                                      pre[1, codes]))
    ql = inputs["ql"][:, _cycle_codes(stimulus)]
    return np.array(comparator.rs_latch.replay(ql[0], ql[1]))


def output_differs(value: Any, old: Any) -> bool:
    """Whether a stage output differs from ``old`` (float ``!=``)."""
    if isinstance(value, np.ndarray):
        return bool((value != old).any())
    return value != old


def _union(code_sets: Sequence[np.ndarray],
           every_code: np.ndarray) -> np.ndarray:
    """The sorted union of index arrays of codes, through a boolean mask
    over ``every_code``."""
    code_sets = [codes for codes in code_sets if len(codes)]
    if not code_sets:
        return every_code[:0]
    if len(code_sets) == 1 or any(len(codes) == len(every_code)
                                  for codes in code_sets):
        return max(code_sets, key=len)
    mask = np.zeros(len(every_code), dtype=bool)
    for codes in code_sets:
        mask[codes] = True
    return every_code[mask]


def sweep_stages(adc: SarAdc, stimulus: SymBistStimulus,
                 base: Optional[GoldenTrace] = None,
                 stage: Optional[str] = None, output: Any = None
                 ) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Walk :data:`STAGES` in order; return every stage's output and every
    signal column.

    Without ``base``, every stage is evaluated on every code.  With
    ``base``, ``stage`` takes ``output`` and every other stage keeps its
    ``base`` output except where its inputs differ from ``base`` (float
    ``!=``): a per-code stage is re-evaluated at those codes only, any
    other stage whole.  The changed codes of each stage are an index
    array.  Only the changed stages' columns replace the ``base`` ones.
    Every block is a pure function of its inputs and its own netlist, so
    with clean netlists downstream of ``stage`` this equals the full sweep
    of the ADC, bit for bit.
    """
    n_codes = stimulus.n_codes
    every_code = np.arange(n_codes)
    no_code = every_code[:0]
    index = _cycle_codes(stimulus)
    outputs: Dict[str, Any] = {}
    # The codes of each stage whose output differs from ``base`` (every
    # code or none for a stage that is not per code).
    changed: Dict[str, np.ndarray] = {}
    columns = {} if base is None else dict(base.columns)
    for name, (per, inputs, _, signals) in STAGES.items():
        if base is None:
            value = stage_output(name, adc, stimulus, outputs)
            changed[name] = every_code
        else:
            old = getattr(base, name)
            if name == stage:
                value, codes = output, every_code
            else:
                codes = _union([changed[i] for i in inputs], every_code)
            if not len(codes):
                value, changed[name] = old, no_code
            elif per != "code":
                if name != stage:
                    value = stage_output(name, adc, stimulus, outputs)
                changed[name] = every_code if output_differs(value, old) \
                    else no_code
            else:
                if name != stage:
                    value = stage_output(name, adc, stimulus, outputs, codes)
                if len(codes) == n_codes:
                    changed[name] = np.flatnonzero((value != old).any(axis=0))
                else:
                    changed[name] = codes[(value != old[:, codes]).any(axis=0)]
                    fresh, value = value, old.copy()
                    value[:, codes] = fresh
        outputs[name] = value
        if signals and len(changed[name]):
            rows = value[:, index] if per == "code" else value
            columns.update(zip((signal for signal, _ in signals), rows))
    if len(changed["op"]) or len(changed["vcm"]):
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

    :func:`sweep_stages` runs each block's column kernel once over the
    distinct counter codes and replays the RS latch per cycle from reset, so
    every column and residual is bit-identical to a full
    :class:`~repro.core.controller.SymBistController` run of the same state.
    """
    outputs, columns = sweep_stages(adc, stimulus)
    return GoldenTrace(**outputs, cycle_codes=_cycle_codes(stimulus),
                       columns=columns,
                       residuals=residual_columns(
                           invariances if invariances is not None
                           else build_invariances(), columns))
