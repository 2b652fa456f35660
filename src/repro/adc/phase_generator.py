"""Phase generator -- timing phases of the SARCELL (behavioral, digital).

Paper context (Section III): "Phase Generator: It controls the timing of the
operation by generating the phases for sampling, comparison, conversion, etc."

This is one of the purely digital blocks of the IP; the paper covers it with
standard digital BIST rather than with SymBIST (Section IV-3).  The behavioral
model here provides the phase sequencing used by the SARCELL simulation; its
gate-level counterpart used for the digital-BIST experiment lives in
:mod:`repro.digital.blocks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List


class Phase(str, Enum):
    """Operating phase of the SARCELL within a conversion."""

    SAMPLE = "sample"
    CONVERT = "convert"
    CAPTURE = "capture"


#: Number of clock cycles per conversion: 1 sampling cycle, 10 bit-decision
#: cycles and 1 output-capture cycle, matching the 12 control pulses P<0:11>
#: generated by the SAR Control block.
CYCLES_PER_CONVERSION = 12


@dataclass
class PhaseGenerator:
    """Produces the phase of each clock cycle within a conversion."""

    cycles_per_conversion: int = CYCLES_PER_CONVERSION

    @property
    def n_bits(self) -> int:
        """Bit-decision cycles per conversion (all cycles minus the
        sampling and output-capture cycles)."""
        return self.cycles_per_conversion - 2

    def phase_of_cycle(self, cycle: int) -> Phase:
        """Phase of clock cycle ``cycle`` (0-based) within its conversion."""
        position = cycle % self.cycles_per_conversion
        if position == 0:
            return Phase.SAMPLE
        if position <= self.n_bits:
            return Phase.CONVERT
        return Phase.CAPTURE

    def schedule(self, n_conversions: int = 1) -> List[Phase]:
        """Phase of every cycle across ``n_conversions`` conversions."""
        total = n_conversions * self.cycles_per_conversion
        return [self.phase_of_cycle(c) for c in range(total)]
