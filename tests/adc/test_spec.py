"""Tests for the ADC specification container (repro.adc.spec)."""

import pytest

from repro.adc import AdcSpecification, MeasuredPerformance, check_specification


class TestSpecification:
    def test_defaults_are_reasonable(self):
        spec = AdcSpecification()
        assert spec.resolution_bits == 10
        assert spec.max_dnl_lsb <= spec.max_inl_lsb


class TestComplianceCheck:
    def test_compliant_measurement(self):
        measured = MeasuredPerformance(dnl_max_lsb=0.4, inl_max_lsb=0.8,
                                       enob_bits=9.5, offset_lsb=1.0,
                                       gain_error_percent=0.2, missing_codes=0)
        assert check_specification(measured) == []

    def test_each_violation_is_reported(self):
        measured = MeasuredPerformance(dnl_max_lsb=3.0, inl_max_lsb=5.0,
                                       enob_bits=6.0, offset_lsb=9.0,
                                       gain_error_percent=4.0, missing_codes=3)
        violations = check_specification(measured)
        assert set(violations) == {"dnl", "inl", "enob", "offset",
                                   "gain_error", "missing_codes"}

    def test_unmeasured_fields_are_skipped(self):
        measured = MeasuredPerformance(enob_bits=9.9)
        assert check_specification(measured) == []

    def test_negative_offset_uses_absolute_value(self):
        measured = MeasuredPerformance(offset_lsb=-6.0)
        assert check_specification(measured) == ["offset"]

    def test_custom_spec_limits(self):
        strict = AdcSpecification(min_enob_bits=9.9)
        measured = MeasuredPerformance(enob_bits=9.8)
        assert check_specification(measured, strict) == ["enob"]

    def test_boundary_values_pass(self):
        spec = AdcSpecification()
        measured = MeasuredPerformance(dnl_max_lsb=spec.max_dnl_lsb,
                                       inl_max_lsb=spec.max_inl_lsb,
                                       enob_bits=spec.min_enob_bits)
        assert check_specification(measured, spec) == []
