"""SARCELL -- the conversion core of the SAR ADC IP (Fig. 3 of the paper).

The SARCELL groups the 10-bit DAC (two sub-DACs + SC array), the comparator
chain, the Vcm generator, the phase generator and the SAR logic.  The
:class:`SarCell` class composes the corresponding block models and provides
the per-cycle evaluation used by the SymBIST test mode (where the DAC digital
inputs come from the BIST counter instead of the SAR logic).  Normal
conversions run the same block models in lockstep over many samples
(:meth:`repro.adc.sar_adc.SarAdc.convert_many`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..dut import DutSpec, default_dut
from .comparator import Comparator, ComparatorOutput
from .dac import DacOutput, TenBitDac
from .phase_generator import PhaseGenerator
from .sar_logic import SarLogic
from .vcm_generator import VcmGenerator


@dataclass
class SarCellOutputs:
    """All SARCELL node voltages produced during one evaluation."""

    dac: DacOutput
    comparator: ComparatorOutput
    vcm: float

    def as_signals(self) -> Dict[str, float]:
        signals = dict(self.dac.as_signals())
        signals.update(self.comparator.as_signals())
        signals["VCM"] = self.vcm
        return signals


class SarCell:
    """Behavioral SARCELL: DAC + comparator + Vcm generator + SAR logic."""

    def __init__(self, dut: Optional[DutSpec] = None) -> None:
        self.dut = dut or default_dut()
        self.dac = TenBitDac(dut=self.dut)
        self.comparator = Comparator(dut=self.dut)
        self.vcm_generator = VcmGenerator(dut=self.dut)
        self.phase_generator = PhaseGenerator(
            cycles_per_conversion=self.dut.cycles_per_conversion)
        self.sar_logic = SarLogic(n_bits=self.dut.resolution_bits)

    # ----------------------------------------------------------------- blocks
    @property
    def analog_blocks(self):
        """Analog sub-blocks in the order used by Table I of the paper."""
        return (self.dac.subdac1, self.dac.subdac2, self.dac.sc_array,
                self.vcm_generator, self.comparator.preamplifier,
                self.comparator.latch, self.comparator.rs_latch,
                self.comparator.offset_compensation)

    def clear_defects(self) -> None:
        for block in self.analog_blocks:
            block.clear_defects()

    # ------------------------------------------------------------------ model
    def evaluate(self, msb_code: int, lsb_code: int, in_p: float, in_m: float,
                 vbg: float, ibias: float,
                 vref: Sequence[float]) -> SarCellOutputs:
        """Evaluate the analog signal path for one clock cycle.

        The DAC digital inputs are supplied by the caller, e.g. the 5-bit
        BIST counter during the SymBIST test.
        """
        vcm = self.vcm_generator.evaluate(vbg)
        dac_out = self.dac.evaluate(msb_code, lsb_code, in_p, in_m, vcm, vref)
        comp_out = self.comparator.evaluate(dac_out.dac_p, dac_out.dac_m,
                                            ibias)
        return SarCellOutputs(dac=dac_out, comparator=comp_out, vcm=vcm)
