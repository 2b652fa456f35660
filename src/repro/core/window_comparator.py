"""Window comparator -- the SymBIST checker circuit.

Paper context (Section II): "These invariances can be checked with a window
comparator circuit implementing a comparison window [-delta, +delta],
delta > 0, to account for process, voltage, and temperature variations.  If
the invariance is violated, i.e. the invariant signal slides outside the
window, then this points to defect detection."

The model is a *clocked* window comparator: it samples the invariant signal
once per clock cycle, after the nodes have settled, so intra-cycle switching
glitches (visible in Fig. 5 of the paper) never cause a detection.  Its own
non-idealities -- threshold offset and hysteresis -- are modelled so that the
BIST infrastructure itself can be the subject of what-if studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..circuit.errors import BistConfigurationError


@dataclass
class WindowCheckResult:
    """Outcome of checking one invariance over a full test run."""

    name: str
    delta: float
    residuals: List[float]
    violations: List[int]

    @property
    def passed(self) -> bool:
        """True when no settled sample left the comparison window."""
        return not self.violations

    @property
    def first_violation_cycle(self) -> Optional[int]:
        """Cycle index of the first detection, or ``None`` when passing."""
        return self.violations[0] if self.violations else None

    @property
    def worst_residual(self) -> float:
        """Largest absolute residual observed during the run."""
        if not self.residuals:
            return 0.0
        return max(abs(r) for r in self.residuals)

    @property
    def n_cycles(self) -> int:
        return len(self.residuals)


@dataclass
class WindowComparator:
    """A clocked window comparator with window ``[center - delta, center + delta]``.

    Parameters
    ----------
    name:
        Name of the invariance this checker monitors.
    delta:
        Half-width of the comparison window (``delta = k * sigma``).
    center:
        Window centre; zero for residual-style invariant signals.
    offset:
        Comparator threshold offset (a checker non-ideality).
    hysteresis:
        Extra margin a sample must exceed before a *new* violation is flagged
        once the signal has re-entered the window; models a real comparator's
        hysteresis and avoids chattering at the window edge.
    """

    name: str
    delta: float
    center: float = 0.0
    offset: float = 0.0
    hysteresis: float = 0.0

    def __post_init__(self) -> None:
        if self.delta <= 0.0:
            raise BistConfigurationError(
                f"checker {self.name!r}: delta must be positive, got {self.delta}")
        if self.hysteresis < 0.0:
            raise BistConfigurationError(
                f"checker {self.name!r}: hysteresis must be non-negative")

    # ------------------------------------------------------------------ checks
    def is_within_window(self, value: float) -> bool:
        """Single settled-sample check against the comparison window."""
        deviation = abs(value - self.center - self.offset)
        return deviation <= self.delta

    def check_samples(self, residuals: Iterable[float]) -> WindowCheckResult:
        """Check a sequence of settled samples (one per clock cycle).

        A sample is a violation iff ``|value - center - offset| > delta``:
        hysteresis only gates the re-arm flag below and never suppresses a
        violation, which is what lets the batched defect evaluator
        (:mod:`repro.defects.batching`) check a whole residual matrix with
        one array comparison.
        """
        residual_list = [float(r) for r in residuals]
        violations: List[int] = []
        outside = False
        for cycle, value in enumerate(residual_list):
            deviation = abs(value - self.center - self.offset)
            re_arm_threshold = self.delta - self.hysteresis
            if deviation > self.delta:
                violations.append(cycle)
                outside = True
            elif outside and deviation <= max(re_arm_threshold, 0.0):
                outside = False
        return WindowCheckResult(name=self.name, delta=self.delta,
                                 residuals=residual_list,
                                 violations=violations)

    # ------------------------------------------------------------------- bounds
    @property
    def lower_bound(self) -> float:
        return self.center + self.offset - self.delta

    @property
    def upper_bound(self) -> float:
        return self.center + self.offset + self.delta


def build_checkers(deltas: dict, offsets: Optional[dict] = None,
                   hysteresis: float = 0.0) -> List[WindowComparator]:
    """Create one window comparator per invariance from a delta table."""
    offsets = offsets or {}
    checkers = []
    for name, delta in deltas.items():
        checkers.append(WindowComparator(name=name, delta=float(delta),
                                         offset=float(offsets.get(name, 0.0)),
                                         hysteresis=hysteresis))
    return checkers
