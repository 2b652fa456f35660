"""ADC specification limits and specification-compliance checking.

The paper's functional-safety argument (and its closing remark about checking
whether undetected defects violate at least one specification) needs a notion
of the converter's datasheet specification.  This module defines the
specification limits of the 10-bit SAR ADC model and a container for measured
performances (produced by :mod:`repro.functional_test`), together with a
compliance check that lists the violated specifications.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional


@dataclass(frozen=True)
class AdcSpecification:
    """Datasheet limits of the 10-bit SAR ADC.

    The default numbers are typical for a general-purpose 10-bit SAR converter
    and are the limits used by the functional-test baseline when it decides
    whether a defective circuit still meets its datasheet.
    """

    #: Converter resolution the limits apply to; defaults to the paper's
    #: 10-bit device.  Use :meth:`for_adc` to bind the limits to a variant.
    resolution_bits: int = 10
    max_dnl_lsb: float = 1.0
    max_inl_lsb: float = 2.0
    min_enob_bits: float = 8.5
    max_offset_lsb: float = 4.0
    max_gain_error_percent: float = 1.0
    max_missing_codes: int = 0

    @classmethod
    def for_adc(cls, adc) -> "AdcSpecification":
        """Specification limits bound to an ADC instance's resolution."""
        return replace(cls(), resolution_bits=adc.dut.resolution_bits)


@dataclass
class MeasuredPerformance:
    """Performances measured by the functional tests.

    Any field left as ``None`` is treated as "not measured" and is skipped by
    the compliance check.
    """

    dnl_max_lsb: Optional[float] = None
    inl_max_lsb: Optional[float] = None
    enob_bits: Optional[float] = None
    offset_lsb: Optional[float] = None
    gain_error_percent: Optional[float] = None
    missing_codes: Optional[int] = None
    extra: Dict[str, float] = field(default_factory=dict)


def check_specification(measured: MeasuredPerformance,
                        spec: Optional[AdcSpecification] = None) -> List[str]:
    """Return the list of violated specification names (empty = compliant)."""
    spec = spec or AdcSpecification()
    violations: List[str] = []
    if measured.dnl_max_lsb is not None and \
            measured.dnl_max_lsb > spec.max_dnl_lsb:
        violations.append("dnl")
    if measured.inl_max_lsb is not None and \
            measured.inl_max_lsb > spec.max_inl_lsb:
        violations.append("inl")
    if measured.enob_bits is not None and \
            measured.enob_bits < spec.min_enob_bits:
        violations.append("enob")
    if measured.offset_lsb is not None and \
            abs(measured.offset_lsb) > spec.max_offset_lsb:
        violations.append("offset")
    if measured.gain_error_percent is not None and \
            abs(measured.gain_error_percent) > spec.max_gain_error_percent:
        violations.append("gain_error")
    if measured.missing_codes is not None and \
            measured.missing_codes > spec.max_missing_codes:
        violations.append("missing_codes")
    return violations
