"""SymBIST test stimulus (paper Section IV-2).

The stimulus has two parts:

* a *static* part: the fully-differential analog input ``Delta-IN`` is held at
  a constant DC value, which "can be set arbitrarily";
* a *dynamic* part: a 5-bit digital counter generates all ``2^5`` bit
  combinations at the inputs ``B<0:4>`` and ``B<5:9>`` of the two sub-DACs,
  so that every component of the DAC is activated, every reference level
  ``VREF[j]`` is used, and the comparator is exercised with many different
  inputs.

The :class:`SymBistStimulus` produces the per-cycle input bundles consumed by
the cycle-based simulator and the BIST controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping

from ..circuit.errors import BistConfigurationError
from ..circuit.units import VCM_NOMINAL
from ..adc.sar_adc import DEFAULT_TEST_INPUT_DIFF

if TYPE_CHECKING:
    from ..circuit.simulator import SequenceStimulus


@dataclass(frozen=True)
class SymBistStimulus:
    """The SymBIST test stimulus: DC FD input + exhaustive 5-bit counter.

    Parameters
    ----------
    input_diff:
        Constant differential input ``Delta-IN = IN+ - IN-`` in volts.
    input_cm:
        Input common-mode voltage (nominally the DAC common mode).
    counter_bits:
        Width of the BIST counter; the paper uses 5 bits so that each sub-DAC
        sees every possible code.
    repeats:
        Number of times the full counter sequence is replayed (1 in the paper).
    """

    input_diff: float = DEFAULT_TEST_INPUT_DIFF
    input_cm: float = VCM_NOMINAL
    counter_bits: int = 5
    repeats: int = 1

    def __post_init__(self) -> None:
        if self.counter_bits <= 0:
            raise BistConfigurationError(
                f"counter_bits must be positive, got {self.counter_bits}")
        if self.repeats <= 0:
            raise BistConfigurationError(
                f"repeats must be positive, got {self.repeats}")

    # ------------------------------------------------------------------ sizes
    @property
    def n_codes(self) -> int:
        """Number of distinct counter codes (``2 ** counter_bits``)."""
        return 2 ** self.counter_bits

    @property
    def n_cycles(self) -> int:
        """Total number of clock cycles in the stimulus."""
        return self.n_codes * self.repeats

    # ---------------------------------------------------------------- bundles
    def code_for_cycle(self, cycle: int) -> int:
        """Counter code applied during clock cycle ``cycle``."""
        if cycle < 0 or cycle >= self.n_cycles:
            raise BistConfigurationError(
                f"cycle {cycle} outside the stimulus ({self.n_cycles} cycles)")
        return cycle % self.n_codes

    def inputs_for_cycle(self, cycle: int) -> Dict[str, float]:
        """Input bundle for one cycle (satisfies the ClockedStimulus protocol)."""
        return {
            "code": float(self.code_for_cycle(cycle)),
            "in_p": self.input_cm + 0.5 * self.input_diff,
            "in_m": self.input_cm - 0.5 * self.input_diff,
        }

    def __len__(self) -> int:
        return self.n_cycles

    def __iter__(self) -> Iterator[Dict[str, float]]:
        for cycle in range(self.n_cycles):
            yield self.inputs_for_cycle(cycle)

    def bundles(self) -> List[Mapping[str, float]]:
        """All per-cycle input bundles, in order."""
        return [self.inputs_for_cycle(c) for c in range(self.n_cycles)]

    def as_sequence_stimulus(self) -> SequenceStimulus:
        """Adapter for :class:`repro.circuit.simulator.TransientSimulator`."""
        from ..circuit.simulator import SequenceStimulus
        return SequenceStimulus(self.bundles())
