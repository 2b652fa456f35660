"""10-bit DAC: two 5-bit sub-DACs plus the switched-capacitor array.

Paper context (Section III, Fig. 4): "The DAC sets the comparison level to
which the input is compared at each conversion cycle.  It has a resistive plus
charge redistribution architecture."  SUBDAC1 converts the five MSBs
``B<5:9>`` into ``M+/M-``, SUBDAC2 converts the five LSBs ``B<0:4>`` into
``L+/L-`` and the SC array combines those levels with the sampled input into
the differential comparator inputs ``DAC+`` / ``DAC-``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..circuit.errors import SimulationError
from ..dut import DutSpec, default_dut
from .sc_array import ScArray, ScArrayInputs
from .subdac import SubDac, make_subdac1, make_subdac2


@dataclass
class DacOutput:
    """All DAC node voltages observed by the SymBIST invariances."""

    m_p: float
    m_m: float
    l_p: float
    l_m: float
    dac_p: float
    dac_m: float

    def as_signals(self) -> Dict[str, float]:
        """Export with the signal names used throughout the package."""
        return {"M+": self.m_p, "M-": self.m_m, "L+": self.l_p,
                "L-": self.l_m, "DAC+": self.dac_p, "DAC-": self.dac_m}


def split_code(code: int, bits: int = 10) -> Tuple[int, int]:
    """Split a ``bits``-wide code into its (MSB half, LSB half) sub-DAC codes
    (``B<5:9>`` and ``B<0:4>`` for the paper's 10-bit device)."""
    full = (1 << bits) - 1
    if not 0 <= code <= full:
        raise SimulationError(
            f"{bits}-bit code must be in [0, {full}], got {code}")
    half = bits // 2
    return code >> half, code & ((1 << half) - 1)


class TenBitDac:
    """The complete 10-bit DAC of the SARCELL (Fig. 4 of the paper)."""

    def __init__(self, dut: Optional[DutSpec] = None) -> None:
        self.dut = dut or default_dut()
        self.subdac1: SubDac = make_subdac1(dut=self.dut)
        self.subdac2: SubDac = make_subdac2(dut=self.dut)
        self.sc_array = ScArray(dut=self.dut)

    # ------------------------------------------------------------------ model
    def evaluate(self, msb_code: int, lsb_code: int, in_p: float, in_m: float,
                 vcm: float, vref: Sequence[float]) -> DacOutput:
        """Evaluate the DAC for one conversion cycle.

        Parameters
        ----------
        msb_code, lsb_code:
            The 5-bit codes applied to SUBDAC1 (``B<5:9>``) and SUBDAC2
            (``B<0:4>``).  During the SymBIST test both receive the same
            counter value; during a conversion they come from the SAR logic.
        in_p, in_m:
            The sampled fully-differential input.
        vcm:
            The common-mode voltage from the Vcm generator.
        vref:
            The reference levels from the reference buffer (33 for the
            paper's 10-bit device).
        """
        sub1 = self.subdac1.evaluate(msb_code, vref)
        sub2 = self.subdac2.evaluate(lsb_code, vref)
        sc_out = self.sc_array.evaluate(ScArrayInputs(
            in_p=in_p, in_m=in_m,
            m_p=sub1.out_p, m_m=sub1.out_n,
            l_p=sub2.out_p, l_m=sub2.out_n,
            vcm=vcm, vref_mid=vref[self.dut.mid_tap]))
        return DacOutput(m_p=sub1.out_p, m_m=sub1.out_n,
                         l_p=sub2.out_p, l_m=sub2.out_n,
                         dac_p=sc_out.dac_p, dac_m=sc_out.dac_m)

    # ----------------------------------------------------------------- blocks
    @property
    def blocks(self):
        """The analog sub-blocks owned by the DAC, in hierarchy order."""
        return (self.subdac1, self.subdac2, self.sc_array)

    def clear_defects(self) -> None:
        for block in self.blocks:
            block.clear_defects()
