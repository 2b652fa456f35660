"""Test-time model (paper Section IV-5).

The paper computes the SymBIST test time for the sequential-checking scenario
as ``6 * 2^5 * (1 / f_clk) = 1.23 us`` at ``f_clk = 156 MHz``, and notes that
this is about 16x the time needed to convert one analog input sample (one
conversion takes the 12 clock cycles paced by the control pulses ``P<0:11>``).

This module provides that arithmetic for both checker-sharing strategies
(sequential: one shared window comparator re-run per invariance; parallel: one
comparator per invariance, single pass) plus the comparison against the
conversion time and against the functional-test baseline, and the checking
schedule itself (:func:`resolve_detection`), which the per-cycle controller
and the batched defect evaluator share.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from ..circuit.errors import BistConfigurationError
from ..circuit.units import F_CLK
from ..adc.phase_generator import CYCLES_PER_CONVERSION


class CheckingMode(str, Enum):
    """How the invariances are checked."""

    SEQUENTIAL = "sequential"  # one shared window comparator, one pass per invariance
    PARALLEL = "parallel"      # one window comparator per invariance, single pass


def resolve_detection(mode: CheckingMode, outside: np.ndarray,
                      stop_on_detection: bool
                      ) -> Tuple[bool, Optional[Tuple[int, int]], int, int]:
    """Walk the checking schedule and resolve the pass/fail accounting.

    ``outside`` is the boolean ``invariance x cycle`` matrix of settled
    samples that left their window.  Returns ``(passed, first_detection,
    cycles_scheduled, cycles_run)`` for the given checking mode, exactly as
    the on-chip controller would compute them, where ``first_detection`` is
    the ``(invariance row, cycle)`` of the earliest detection in the
    schedule: sequential mode walks one invariance at a time (row-major
    order), parallel mode checks every invariance within each counter cycle
    (cycle-major order).  This is the one schedule policy of the full
    :class:`~repro.core.controller.SymBistController` run and of the
    batched defect evaluator.
    """
    n_rows, n_cycles = outside.shape
    sequential = mode is CheckingMode.SEQUENTIAL
    cycles_scheduled = n_rows * n_cycles if sequential else n_cycles
    if not outside.any():
        return True, None, cycles_scheduled, cycles_scheduled
    if sequential:
        row, cycle = divmod(int(np.argmax(outside)), n_cycles)
        steps = row * n_cycles + cycle + 1
    else:
        cycle, row = divmod(int(np.argmax(outside.T)), n_rows)
        steps = cycle + 1
    cycles_run = steps if stop_on_detection else cycles_scheduled
    return False, (row, cycle), cycles_scheduled, cycles_run


@dataclass(frozen=True)
class TestTimeModel:
    """SymBIST test-time arithmetic.

    Parameters
    ----------
    n_invariances:
        Number of invariances checked (6 for the SAR ADC IP).
    counter_bits:
        BIST counter width (5 for the SAR ADC IP).
    clock_frequency:
        Test clock frequency in hertz (156 MHz in the paper).
    cycles_per_conversion:
        Clock cycles needed for one normal conversion (12 for this IP).
    """

    # Not a pytest test class, despite the name.
    __test__ = False

    n_invariances: int = 6
    counter_bits: int = 5
    clock_frequency: float = F_CLK
    cycles_per_conversion: int = CYCLES_PER_CONVERSION

    def __post_init__(self) -> None:
        if self.n_invariances <= 0:
            raise BistConfigurationError("n_invariances must be positive")
        if self.counter_bits <= 0:
            raise BistConfigurationError("counter_bits must be positive")
        if self.clock_frequency <= 0:
            raise BistConfigurationError("clock_frequency must be positive")

    # ----------------------------------------------------------------- cycles
    @property
    def cycles_per_pass(self) -> int:
        """Clock cycles needed to sweep the counter once."""
        return 2 ** self.counter_bits

    def test_cycles(self, mode: CheckingMode = CheckingMode.SEQUENTIAL) -> int:
        """Total number of clock cycles of the SymBIST test."""
        if mode is CheckingMode.SEQUENTIAL:
            return self.n_invariances * self.cycles_per_pass
        return self.cycles_per_pass

    # ------------------------------------------------------------------ times
    def test_time(self, mode: CheckingMode = CheckingMode.SEQUENTIAL) -> float:
        """SymBIST test time in seconds."""
        return self.test_cycles(mode) / self.clock_frequency

    @property
    def conversion_time(self) -> float:
        """Time to convert one analog input sample, in seconds."""
        return self.cycles_per_conversion / self.clock_frequency

    def test_time_in_conversions(self,
                                 mode: CheckingMode = CheckingMode.SEQUENTIAL
                                 ) -> float:
        """Test time expressed as a multiple of one conversion time."""
        return self.test_time(mode) / self.conversion_time

    def functional_test_time(self, n_samples: int) -> float:
        """Time a conversion-based functional test needs for ``n_samples``."""
        if n_samples <= 0:
            raise BistConfigurationError("n_samples must be positive")
        return n_samples * self.conversion_time

    def speedup_vs_functional(self, n_samples: int,
                              mode: CheckingMode = CheckingMode.SEQUENTIAL
                              ) -> float:
        """How many times faster SymBIST is than an ``n_samples`` functional test."""
        return self.functional_test_time(n_samples) / self.test_time(mode)
