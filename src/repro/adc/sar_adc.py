"""Top-level 10-bit SAR ADC IP (Fig. 2 of the paper).

The :class:`SarAdc` class composes the SARCELL, the SAR control, the bandgap
and the reference buffer and exposes the two operating modes used throughout
the repository:

* **conversion mode** (:meth:`convert`, :meth:`convert_many`): the normal
  ADC function.  The SAR logic performs the 10-step successive
  approximation using the DAC and the comparator, for all samples of a call
  in lockstep; used by the functional-test baseline and by the examples.
* **SymBIST test mode** (:meth:`evaluate_test_cycle`): the DAC digital inputs
  are driven by the BIST counter code (the same 5-bit value on ``B<0:4>`` and
  ``B<5:9>``), the analog input is a constant fully-differential DC level, and
  the method returns every node voltage observed by the invariances.

The ADC also builds the :class:`~repro.circuit.netlist.NetlistHierarchy` that
the defect-universe extractor walks, with one entry per analog block in the
same order as Table I of the paper.

The device itself is declarative data: every electrical quantity and the
resolution come from the instance's :class:`~repro.dut.DutSpec`.  The default
``DutSpec()`` reproduces the paper's 65 nm 10-bit device bit-identically;
studies sweep variants by constructing :class:`DutAdcFactory` with a
non-default spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.errors import SimulationError
from ..circuit.netlist import NetlistHierarchy
from ..circuit.variation import VariationSpec
from ..dut import DutSpec, default_dut
from .bandgap import Bandgap
from .block import AnalogBlock
from .reference_buffer import ReferenceBuffer
from .sar_control import SarControl
from .sarcell import SarCell

#: Default DC differential input applied during the SymBIST test.  The paper
#: notes the value can be set arbitrarily; a non-zero value is used so that
#: defects in the input sampling path remain observable, and it is chosen so
#: that no counter code lands exactly on the comparator metastable point.
DEFAULT_TEST_INPUT_DIFF = 0.275


@dataclass
class OperatingPoint:
    """DC operating point shared by every cycle of a test or conversion.

    The bandgap output, the bias current, the reference ladder and the input
    levels do not depend on the counter / SAR code, so they are computed once
    per run (after defect injection and Monte Carlo sampling) and reused.
    """

    vbg: float
    ibias: float
    vref: List[float]
    in_p: float
    in_m: float

    @property
    def vref_full_scale(self) -> float:
        return self.vref[-1]


class SarAdc:
    """Behavioral 65 nm SAR ADC IP model (10-bit by default)."""

    def __init__(self, dut: Optional[DutSpec] = None) -> None:
        self.dut = dut or default_dut()
        self.bandgap = Bandgap(dut=self.dut)
        self.reference_buffer = ReferenceBuffer(dut=self.dut)
        self.sar_control = SarControl(
            n_pulses=self.dut.cycles_per_conversion)
        self.sarcell = SarCell(dut=self.dut)
        self._apply_block_params()

    def _apply_block_params(self) -> None:
        """Apply the spec's per-block parameter overrides.

        Each ``[dut.block_params.<block>]`` entry retargets the *nominal* of
        a declared block parameter, so Monte Carlo variation draws centre on
        the overridden value instead of the design default.
        """
        from ..circuit.errors import DutSpecError
        known = {blk.block_path: blk for blk in self.analog_blocks}
        for block_path, overrides in self.dut.block_params.items():
            block = known.get(block_path)
            if block is None:
                raise DutSpecError(
                    f"dut.block_params names unknown block {block_path!r}; "
                    f"known blocks: {sorted(known)}")
            for param_name, value in overrides.items():
                try:
                    block.override_nominal(param_name, value)
                except KeyError as exc:
                    raise DutSpecError(
                        f"dut.block_params.{block_path} names unknown "
                        f"parameter {param_name!r}; available: "
                        f"{sorted(block.parameter_names)}") from exc

    # ----------------------------------------------------------------- blocks
    @property
    def analog_blocks(self) -> Tuple[AnalogBlock, ...]:
        """All A/M-S blocks, ordered like Table I of the paper."""
        cell = self.sarcell
        return (self.bandgap, self.reference_buffer,
                cell.dac.subdac1, cell.dac.subdac2, cell.dac.sc_array,
                cell.vcm_generator, cell.comparator.preamplifier,
                cell.comparator.latch, cell.comparator.rs_latch,
                cell.comparator.offset_compensation)

    def block(self, path: str) -> AnalogBlock:
        """Return the analog block registered under hierarchy path ``path``."""
        for blk in self.analog_blocks:
            if blk.block_path == path:
                return blk
        raise SimulationError(f"the IP has no analog block {path!r}")

    def build_hierarchy(self) -> NetlistHierarchy:
        """Structural hierarchy of the A/M-S part, for defect extraction."""
        hierarchy = NetlistHierarchy("sar_adc_ip")
        for blk in self.analog_blocks:
            hierarchy.register(blk.block_path, blk.netlist, group="ams")
        return hierarchy

    # ----------------------------------------------------------- defect state
    def clear_defects(self) -> None:
        for blk in self.analog_blocks:
            blk.clear_defects()

    @property
    def has_defect(self) -> bool:
        return any(blk.has_defect for blk in self.analog_blocks)

    # -------------------------------------------------------------- variation
    def sample_variation(self, rng: np.random.Generator,
                         spec: Optional[VariationSpec] = None) -> None:
        """Apply one Monte Carlo process-variation draw to every analog block."""
        if spec is None:
            spec = self.dut.variation_spec()
        for blk in self.analog_blocks:
            blk.sample_variation(rng, spec)

    def reset_variation(self) -> None:
        for blk in self.analog_blocks:
            blk.reset_variation()

    # --------------------------------------------------------------- op point
    def operating_point(self, input_diff: Optional[float] = None,
                        input_cm: Optional[float] = None) -> OperatingPoint:
        """Compute the DC operating point (after any defect injection).

        ``input_diff`` / ``input_cm`` default to the spec's SymBIST test
        stimulus (a 275 mV differential level at the nominal common mode for
        the paper's device).
        """
        if input_diff is None:
            input_diff = self.dut.test_input_diff
        if input_cm is None:
            input_cm = self.dut.common_mode
        bg = self.bandgap.evaluate()
        vref = self.reference_buffer.evaluate(bg.vbg)
        return OperatingPoint(vbg=bg.vbg, ibias=bg.ibias, vref=vref,
                              in_p=input_cm + 0.5 * input_diff,
                              in_m=input_cm - 0.5 * input_diff)

    # ------------------------------------------------------------ SymBIST mode
    def evaluate_test_cycle(self, counter_code: int,
                            op: Optional[OperatingPoint] = None,
                            input_diff: Optional[float] = None
                            ) -> Dict[str, float]:
        """Evaluate one SymBIST test cycle.

        The half-resolution ``counter_code`` is applied to both sub-DAC
        inputs (``B<0:4>`` and ``B<5:9>`` on the paper's 10-bit device),
        exactly like the paper's test stimulus.  Returns every signal
        observed by the invariances plus the supply and bias observables.
        """
        code_max = self.dut.counter_codes - 1
        if not 0 <= counter_code <= code_max:
            raise SimulationError(
                f"counter code must be in [0, {code_max}], got {counter_code}")
        if op is None:
            op = self.operating_point(input_diff=input_diff)
        outputs = self.sarcell.evaluate(counter_code, counter_code,
                                        op.in_p, op.in_m, op.vbg, op.ibias,
                                        op.vref)
        signals = outputs.as_signals()
        signals.update({
            # Paper signal names: VREF32 is the full-scale tap and VREF16 the
            # mid tap, whatever the variant's actual tap count.
            "VREF32": op.vref[-1],
            "VREF16": op.vref[self.dut.mid_tap],
            "VBG": op.vbg,
            "IBIAS": op.ibias,
            "IN+": op.in_p,
            "IN-": op.in_m,
            "VDD": self.dut.vdd,
        })
        return signals

    # --------------------------------------------------------- conversion mode
    def convert(self, input_diff: float, input_cm: Optional[float] = None,
                op: Optional[OperatingPoint] = None) -> int:
        """Convert one fully-differential input sample to an output code."""
        if input_cm is None:
            input_cm = self.dut.common_mode
        if op is None:
            op = self.operating_point(input_diff=input_diff, input_cm=input_cm)
        return self._convert_lockstep([input_diff], input_cm, op)[0]

    def convert_many(self, input_diffs: Iterable[float],
                     input_cm: Optional[float] = None) -> List[int]:
        """Convert a sequence of input samples, reusing one operating point."""
        if input_cm is None:
            input_cm = self.dut.common_mode
        op = self.operating_point(input_diff=0.0, input_cm=input_cm)
        return self._convert_lockstep([float(diff) for diff in input_diffs],
                                      input_cm, op)

    def _convert_lockstep(self, input_diffs: Sequence[float], input_cm: float,
                          op: OperatingPoint) -> List[int]:
        """Run the SAR searches of every sample in lockstep, MSB first.

        Bit-identical to converting the samples one after another, each a
        reset SAR register and RS latch followed by one
        :meth:`SarCell.evaluate` per bit: every block model is a pure
        function of its inputs and its own defect and parameter state,
        which are fixed for the call, and a sample's decisions depend only
        on its own earlier decisions.  So the Vcm level, the sub-DAC outputs
        of every counter code and each block's input-independent state are
        resolved once; then each bit runs one column kernel per block over
        all samples (float64 signal columns, int64 codes), and the RS latch
        -- the one stateful block -- steps each sample from its own stored
        state.  The SAR register and the RS latch are left as the last
        sample's conversion leaves them.
        """
        if not input_diffs:
            return []
        cell = self.sarcell
        dac, comparator = cell.dac, cell.comparator
        half = self.dut.half_bits
        lsb_mask = self.dut.counter_codes - 1
        counter_codes = range(self.dut.counter_codes)
        vcm = cell.vcm_generator.evaluate(op.vbg)
        vref_mid = op.vref[self.dut.mid_tap]
        sub1 = dac.subdac1.sweep(counter_codes, op.vref)
        sub2 = dac.subdac2.sweep(counter_codes, op.vref)
        m_p = np.array([out.out_p for out in sub1])
        m_m = np.array([out.out_n for out in sub1])
        l_p = np.array([out.out_p for out in sub2])
        l_m = np.array([out.out_n for out in sub2])
        sc_array, preamplifier = dac.sc_array, comparator.preamplifier
        latch, rs_latch = comparator.latch, comparator.rs_latch
        sc_state = sc_array.resolve()
        pre_state = preamplifier.resolve(op.ibias,
                                         comparator.offset_compensation)
        latch_state = latch.resolve()
        rs_actions = rs_latch.resolve_defect_actions()
        diffs = np.array(input_diffs, dtype=float)
        in_p = input_cm + 0.5 * diffs
        in_m = input_cm - 0.5 * diffs
        codes = np.zeros(len(diffs), dtype=np.int64)
        rs_states = np.zeros(len(diffs), dtype=np.int64)
        logic = cell.sar_logic
        for bit in range(logic.n_bits - 1, -1, -1):
            trials = codes | (1 << bit)
            msb, lsb = trials >> half, trials & lsb_mask
            dac_p, dac_m = sc_array.columns(
                sc_state, in_p, in_m, m_p[msb], m_m[msb], l_p[lsb], l_m[lsb],
                vcm, vref_mid)
            lin_p, lin_m = preamplifier.columns(pre_state, dac_p, dac_m)
            ql_p, ql_m = latch.columns(latch_state, lin_p, lin_m)
            rs_states, q_p, q_m = rs_latch.step_columns(ql_p, ql_m, rs_states,
                                                        rs_actions)
            # The comparator output is high when DAC+ > DAC-, i.e. when the
            # input is *below* the trial level; the bit is kept otherwise.
            codes = np.where(q_p > q_m, codes, trials)
        logic.start_conversion()
        for bit in range(logic.n_bits - 1, -1, -1):
            logic.apply_decision((int(codes[-1]) >> bit) & 1)
        return codes.tolist()

    # ----------------------------------------------------------------- ranges
    def ideal_input_range(self) -> Tuple[float, float]:
        """Approximate differential input range of the converter.

        Derived from the charge-redistribution weights: the comparator
        threshold for code ``c`` sits at ``(c - mid) * VREF_FS / mid`` where
        ``mid`` is the zero-input code (528 on the paper's device).
        """
        op = self.operating_point(input_diff=0.0)
        vfs = op.vref_full_scale
        mid = float(self.dut.mid_code)
        low = -mid * vfs / mid
        high = (float(self.dut.full_code) - mid) * vfs / mid
        return low, high

    def code_to_input(self, code: int) -> float:
        """Ideal differential input corresponding to an output code."""
        if not 0 <= code < self.dut.n_codes:
            raise SimulationError(
                f"code must be a {self.dut.resolution_bits}-bit value "
                f"(0 .. {self.dut.full_code}), got {code}")
        op = self.operating_point(input_diff=0.0)
        mid = float(self.dut.mid_code)
        return (code - mid) * op.vref_full_scale / mid


class DutAdcFactory:
    """Picklable ADC factory bound to one :class:`DutSpec`.

    Used wherever the engine needs a zero-argument ``adc_factory`` callable:
    the instance pickles into worker processes, and its :attr:`token` keys
    result-cache entries by the spec fingerprint so two variants never share
    cached artifacts.  A default-spec factory keeps the plain ``SarAdc``
    token, which is what makes pre-refactor caches replay bit-identically.
    """

    def __init__(self, dut: Optional[DutSpec] = None) -> None:
        self.dut = dut or default_dut()

    def __call__(self) -> SarAdc:
        return SarAdc(self.dut)

    @property
    def token(self) -> str:
        """Stable cache-key token for this factory."""
        base = f"{SarAdc.__module__}.{SarAdc.__qualname__}"
        if self.dut.is_default:
            return base
        return f"{base}#dut={self.dut.fingerprint()}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DutAdcFactory) and other.dut == self.dut

    def __hash__(self) -> int:
        return hash((DutAdcFactory, self.dut.fingerprint()))

    def __repr__(self) -> str:
        return f"DutAdcFactory(dut={self.dut!r})"
