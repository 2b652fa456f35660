"""Tests for the clocked window comparator (repro.core.window_comparator)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import BistConfigurationError
from repro.core import WindowComparator, build_checkers


class TestConstruction:
    def test_positive_delta_required(self):
        with pytest.raises(BistConfigurationError):
            WindowComparator(name="x", delta=0.0)
        with pytest.raises(BistConfigurationError):
            WindowComparator(name="x", delta=-1.0)

    def test_negative_hysteresis_rejected(self):
        with pytest.raises(BistConfigurationError):
            WindowComparator(name="x", delta=1.0, hysteresis=-0.1)

    def test_build_checkers_from_delta_table(self):
        checkers = build_checkers({"a": 0.1, "b": 0.2}, offsets={"b": 0.05})
        assert len(checkers) == 2
        by_name = {c.name: c for c in checkers}
        assert by_name["b"].offset == pytest.approx(0.05)


class TestSingleSample:
    def test_inside_window_passes(self):
        checker = WindowComparator(name="x", delta=0.1)
        assert checker.check_samples([0.05]).passed
        assert checker.check_samples([-0.1]).passed

    def test_outside_window_fails(self):
        checker = WindowComparator(name="x", delta=0.1)
        assert not checker.check_samples([0.11]).passed
        assert not checker.check_samples([-0.5]).passed

    def test_offset_shifts_the_window(self):
        checker = WindowComparator(name="x", delta=0.1, offset=0.2)
        assert checker.check_samples([0.25]).passed
        assert not checker.check_samples([0.0]).passed


class TestSampleSequences:
    def test_all_inside_passes(self):
        checker = WindowComparator(name="x", delta=0.1)
        result = checker.check_samples([0.0, 0.05, -0.08, 0.02])
        assert result.passed
        assert result.first_violation_cycle is None
        assert result.worst_residual == pytest.approx(0.08)

    def test_violation_records_cycle_indices(self):
        checker = WindowComparator(name="x", delta=0.1)
        result = checker.check_samples([0.0, 0.2, 0.05, -0.3])
        assert not result.passed
        assert result.violations == [1, 3]
        assert result.first_violation_cycle == 1

    def test_empty_sequence_passes(self):
        checker = WindowComparator(name="x", delta=0.1)
        assert checker.check_samples([]).passed

    def test_result_metadata(self):
        checker = WindowComparator(name="dac_sum", delta=0.05)
        result = checker.check_samples([0.0, 0.1])
        assert result.name == "dac_sum"
        assert result.delta == pytest.approx(0.05)
        assert result.n_cycles == 2

    def test_hysteresis_does_not_mask_first_violation(self):
        checker = WindowComparator(name="x", delta=0.1, hysteresis=0.02)
        result = checker.check_samples([0.0, 0.15, 0.0])
        assert result.first_violation_cycle == 1

    @given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1,
                    max_size=50),
           st.floats(min_value=0.01, max_value=0.5))
    @settings(max_examples=60, deadline=None)
    def test_pass_iff_all_samples_inside(self, samples, delta):
        """Property: the run passes exactly when every |sample| <= delta."""
        checker = WindowComparator(name="p", delta=delta)
        result = checker.check_samples(samples)
        assert result.passed == all(abs(s) <= delta for s in samples)

    @given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1,
                    max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_worst_residual_is_max_abs(self, samples):
        checker = WindowComparator(name="p", delta=0.2)
        result = checker.check_samples(samples)
        assert result.worst_residual == pytest.approx(max(abs(s) for s in samples))
