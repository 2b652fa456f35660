"""Ramp-based static linearity test (transfer curve, DNL, INL, offset, gain).

This is the classic bench characterisation the functional-BIST literature the
paper cites tries to move on-chip: a slow ramp (here, a dense sweep of DC
levels) is converted, the code transition levels are extracted and the static
metrics are computed from them.  The baseline functional test of experiment
E8 uses these metrics to decide whether a defective converter still meets its
datasheet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..adc.sar_adc import SarAdc
from ..adc.spec import MeasuredPerformance
from ..circuit.errors import FunctionalTestError


@dataclass
class TransferCurve:
    """Measured conversion results over a dense input sweep."""

    inputs: np.ndarray
    codes: np.ndarray

    def __post_init__(self) -> None:
        if len(self.inputs) != len(self.codes):
            raise FunctionalTestError("inputs and codes must align")
        if len(self.inputs) < 4:
            raise FunctionalTestError("a transfer curve needs at least 4 points")

    @property
    def n_points(self) -> int:
        return len(self.inputs)


@dataclass
class LinearityResult:
    """Static linearity metrics extracted from a transfer curve."""

    dnl_lsb: np.ndarray
    inl_lsb: np.ndarray
    offset_lsb: float
    gain_error_percent: float
    missing_codes: int
    n_transitions: int

    @property
    def dnl_max_lsb(self) -> float:
        return float(np.max(np.abs(self.dnl_lsb))) if self.dnl_lsb.size else 0.0

    @property
    def inl_max_lsb(self) -> float:
        return float(np.max(np.abs(self.inl_lsb))) if self.inl_lsb.size else 0.0

    def as_performance(self) -> MeasuredPerformance:
        """Convert to the specification-check container."""
        return MeasuredPerformance(dnl_max_lsb=self.dnl_max_lsb,
                                   inl_max_lsb=self.inl_max_lsb,
                                   offset_lsb=self.offset_lsb,
                                   gain_error_percent=self.gain_error_percent,
                                   missing_codes=self.missing_codes)


def measure_transfer_curve(adc: SarAdc, n_points: int = 512,
                           margin: float = 0.02) -> TransferCurve:
    """Convert a dense DC sweep spanning the converter input range."""
    if n_points < 4:
        raise FunctionalTestError("n_points must be at least 4")
    low, high = adc.ideal_input_range()
    span = high - low
    inputs = np.linspace(low + margin * span, high - margin * span, n_points)
    codes = np.asarray(adc.convert_many(inputs), dtype=int)
    return TransferCurve(inputs=inputs, codes=codes)


def transition_levels(curve: TransferCurve) -> Tuple[np.ndarray, np.ndarray]:
    """Extract code transition levels from a (noise-free) transfer curve.

    Returns ``(codes, levels)`` where ``levels[i]`` is the lowest input that
    produced ``codes[i]``.  Non-monotonic transfer curves (possible for
    defective converters) are handled by taking the first occurrence.
    """
    codes = curve.codes
    inputs = curve.inputs
    seen = {}
    for value, code in zip(inputs, codes):
        if int(code) not in seen:
            seen[int(code)] = float(value)
    ordered = sorted(seen.items())
    return (np.asarray([c for c, _ in ordered], dtype=int),
            np.asarray([v for _, v in ordered], dtype=float))


def linearity_from_curve(curve: TransferCurve,
                         n_bits: int = 10,
                         design_lsb: Optional[float] = None,
                         mid_code: Optional[int] = None) -> LinearityResult:
    """DNL / INL / offset / gain error from a measured transfer curve.

    The DNL/INL metrics are computed on the code-width sequence inside the
    exercised code range against the end-point fit (the standard bench
    procedure).  Offset and gain error need the converter's *design* transfer
    function: ``design_lsb`` is the nominal LSB size in volts and ``mid_code``
    the code ideally produced by a zero differential input; when omitted they
    default to the values of the behavioral 10-bit SAR ADC model (VREF/528
    per LSB, mid code 528).
    """
    codes, levels = transition_levels(curve)
    if len(codes) < 3:
        raise FunctionalTestError(
            "the transfer curve exercises fewer than 3 codes; the converter "
            "is grossly defective and linearity is undefined")

    first_code, last_code = int(codes[0]), int(codes[-1])
    exercised = last_code - first_code + 1

    # Ideal LSB from the end-point fit of the measured transition levels.
    ideal_lsb = (levels[-1] - levels[0]) / max(last_code - first_code, 1)
    if ideal_lsb <= 0:
        raise FunctionalTestError("non-increasing transfer curve end points")

    # A code can only be declared missing (and per-code DNL only measured
    # meaningfully) when the input sweep is fine enough to hit every code at
    # least twice; a coarse sweep skips codes because of its own step size.
    fine_sweep = curve.n_points >= 2 * exercised
    missing = exercised - len(codes) if fine_sweep else 0

    # Code widths between consecutive observed transitions.  With a fine
    # sweep, skipped codes show up as DNL = -1 at the skipped location; with
    # a coarse sweep the width is normalised by the number of codes stepped
    # over so the sweep granularity does not masquerade as non-linearity.
    dnl = []
    for i in range(1, len(codes)):
        step_codes = int(codes[i] - codes[i - 1])
        width = (levels[i] - levels[i - 1]) / ideal_lsb
        dnl.append(width / step_codes - 1.0)
        if fine_sweep and step_codes > 1:
            dnl.extend([-1.0] * (step_codes - 1))
    dnl_arr = np.asarray(dnl, dtype=float)

    # INL: deviation of each transition level from the end-point line.
    line = levels[0] + (codes - first_code) * ideal_lsb
    inl_arr = (levels - line) / ideal_lsb

    # Offset and gain error against the *design* transfer function.
    if mid_code is None:
        mid_code = 528  # differential zero maps to code 528 in this IP
    if design_lsb is None or design_lsb <= 0:
        design_lsb = ideal_lsb
    idx_mid = int(np.argmin(np.abs(codes - mid_code)))
    ideal_level_of_code = (int(codes[idx_mid]) - mid_code) * design_lsb
    offset_lsb = (levels[idx_mid] - ideal_level_of_code) / design_lsb
    gain_error = 100.0 * (ideal_lsb - design_lsb) / design_lsb

    return LinearityResult(dnl_lsb=dnl_arr, inl_lsb=inl_arr,
                           offset_lsb=float(offset_lsb),
                           gain_error_percent=float(gain_error),
                           missing_codes=int(missing),
                           n_transitions=len(codes) - 1)


def ramp_linearity_test(adc: SarAdc, n_points: int = 512) -> LinearityResult:
    """Convenience wrapper: measure the curve and extract the metrics."""
    mid = adc.dut.mid_code
    design_lsb = adc.code_to_input(mid + 1) - adc.code_to_input(mid)
    return linearity_from_curve(measure_transfer_curve(adc, n_points),
                                n_bits=adc.dut.resolution_bits,
                                design_lsb=design_lsb, mid_code=mid)


def reduced_code_linearity_test(adc: SarAdc, center_code: Optional[int] = None,
                                span_codes: int = 64,
                                samples_per_code: int = 4) -> LinearityResult:
    """Reduced-code static linearity test.

    Measuring all 1024 codes with a fine ramp costs thousands of conversions;
    reduced-code techniques (e.g. Laraba et al., cited in the paper) measure a
    window of codes around the stress points instead.  The window is swept
    with ``samples_per_code`` points per LSB so that per-code DNL and missing
    codes are meaningful, at a fraction of the full-ramp cost.
    """
    if span_codes < 8:
        raise FunctionalTestError("span_codes must be at least 8")
    if samples_per_code < 2:
        raise FunctionalTestError("samples_per_code must be at least 2")
    mid = adc.dut.mid_code
    if center_code is None:
        center_code = mid
    design_lsb = adc.code_to_input(mid + 1) - adc.code_to_input(mid)
    low = adc.code_to_input(max(center_code - span_codes // 2, 1))
    high = adc.code_to_input(min(center_code + span_codes // 2,
                                 adc.dut.full_code - 1))
    n_points = span_codes * samples_per_code
    inputs = np.linspace(low, high, n_points)
    codes = np.asarray(adc.convert_many(inputs), dtype=int)
    curve = TransferCurve(inputs=inputs, codes=codes)
    return linearity_from_curve(curve, n_bits=adc.dut.resolution_bits,
                                design_lsb=design_lsb, mid_code=mid)
