"""Linear-feedback shift registers and MISR signature compaction.

The logic-BIST flavour assumed by the paper ("standard digital BIST") drives
scan chains from a pseudo-random pattern generator (an LFSR) and compacts the
responses into a multiple-input signature register (MISR).  Both primitives
are implemented here in their Fibonacci form with a table of primitive
polynomial taps for common widths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..circuit.errors import DigitalTestError

#: Primitive polynomial taps (1-based bit positions, LSB = 1) per width.
PRIMITIVE_TAPS: Dict[int, Tuple[int, ...]] = {
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 11, 10, 4),
    16: (16, 15, 13, 4),
    20: (20, 17),
    24: (24, 23, 22, 17),
    32: (32, 22, 2, 1),
}


def _taps_for_width(width: int) -> Tuple[int, ...]:
    if width in PRIMITIVE_TAPS:
        return PRIMITIVE_TAPS[width]
    raise DigitalTestError(
        f"no primitive polynomial tabulated for width {width}; "
        f"available widths: {sorted(PRIMITIVE_TAPS)}")


@dataclass
class Lfsr:
    """Fibonacci LFSR pseudo-random pattern generator."""

    width: int
    seed: int = 1
    taps: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise DigitalTestError("LFSR width must be positive")
        if not self.taps:
            self.taps = _taps_for_width(self.width)
        mask = (1 << self.width) - 1
        self.state = self.seed & mask
        if self.state == 0:
            raise DigitalTestError("LFSR seed must be non-zero")

    @property
    def period(self) -> int:
        """Maximal-length period of the generator."""
        return (1 << self.width) - 1

    def step(self) -> int:
        """Advance one bit and return the new serial output bit."""
        feedback = 0
        for tap in self.taps:
            feedback ^= (self.state >> (tap - 1)) & 1
        self.state = ((self.state << 1) | feedback) & ((1 << self.width) - 1)
        if self.state == 0:  # pragma: no cover - cannot happen with primitive taps
            self.state = 1
        return self.state & 1

    def next_bits(self, n_bits: int) -> List[int]:
        """The next ``n_bits`` serial output bits."""
        if n_bits < 0:
            raise DigitalTestError("n_bits must be non-negative")
        return [self.step() for _ in range(n_bits)]


@dataclass
class Misr:
    """Multiple-input signature register (parallel-input LFSR compactor)."""

    width: int
    taps: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise DigitalTestError("MISR width must be positive")
        if not self.taps:
            self.taps = _taps_for_width(self.width)
        self.state = 0

    def reset(self) -> None:
        self.state = 0

    def compact(self, bits: Sequence[int]) -> int:
        """Fold one response slice (up to ``width`` bits) into the signature."""
        if len(bits) > self.width:
            raise DigitalTestError(
                f"MISR of width {self.width} cannot absorb {len(bits)} bits "
                "in one cycle")
        feedback = 0
        for tap in self.taps:
            feedback ^= (self.state >> (tap - 1)) & 1
        self.state = ((self.state << 1) | feedback) & ((1 << self.width) - 1)
        word = 0
        for index, bit in enumerate(bits):
            if bit not in (0, 1):
                raise DigitalTestError("response bits must be 0/1")
            word |= bit << index
        self.state ^= word
        return self.state

    @property
    def signature(self) -> int:
        return self.state
