"""Tests for waveform traces (repro.circuit.signals)."""

import numpy as np
import pytest

from repro.circuit import SimulationError, Trace, WaveformSet


class TestTrace:
    def test_append_and_length(self):
        trace = Trace("x")
        trace.append(0.0, 1.0)
        trace.append(1e-9, 2.0)
        assert len(trace) == 2
        assert list(trace) == [(0.0, 1.0), (1e-9, 2.0)]

    def test_non_monotonic_time_rejected(self):
        trace = Trace("x")
        trace.append(1.0, 0.0)
        with pytest.raises(SimulationError):
            trace.append(0.5, 0.0)

    def test_equal_times_allowed(self):
        trace = Trace("x")
        trace.append(1.0, 0.0)
        trace.append(1.0, 1.0)  # zero-width glitch sample
        assert len(trace) == 2

    def test_extend(self):
        trace = Trace("x")
        trace.extend([0.0, 1.0, 2.0], [5.0, 6.0, 7.0])
        assert trace.values == [5.0, 6.0, 7.0]

    def test_as_arrays(self):
        trace = Trace("x")
        trace.extend([0.0, 1.0], [2.0, 3.0])
        times, values = trace.as_arrays()
        assert isinstance(times, np.ndarray)
        assert values.tolist() == [2.0, 3.0]

    def test_value_at_zero_order_hold(self):
        trace = Trace("x")
        trace.extend([0.0, 1.0, 2.0], [10.0, 20.0, 30.0])
        assert trace.value_at(0.5) == pytest.approx(10.0)
        assert trace.value_at(1.0) == pytest.approx(20.0)
        assert trace.value_at(5.0) == pytest.approx(30.0)
        assert trace.value_at(-1.0) == pytest.approx(10.0)

    def test_statistics(self):
        trace = Trace("x")
        trace.extend(range(4), [1.0, -3.0, 2.0, 0.0])
        assert trace.min() == -3.0
        assert trace.max() == 2.0
        assert trace.mean() == pytest.approx(0.0)

    def test_empty_trace_statistics_raise(self):
        trace = Trace("x")
        with pytest.raises(SimulationError):
            trace.min()
        with pytest.raises(SimulationError):
            trace.value_at(0.0)


class TestWaveformSet:
    def test_record_creates_traces(self):
        waves = WaveformSet()
        waves.record("a", 0.0, 1.0)
        waves.record("a", 1.0, 2.0)
        waves.record("b", 0.0, 3.0)
        assert len(waves) == 2
        assert "a" in waves and "b" in waves
        assert len(waves["a"]) == 2

    def test_record_many(self):
        waves = WaveformSet()
        waves.record_many(0.0, {"x": 1.0, "y": 2.0})
        waves.record_many(1.0, {"x": 3.0, "y": 4.0})
        assert waves["y"].values == [2.0, 4.0]

    def test_missing_trace_raises(self):
        waves = WaveformSet()
        with pytest.raises(SimulationError):
            waves["nothing"]

    def test_names(self):
        waves = WaveformSet()
        waves.record("z", 0.0, 0.0)
        waves.record("a", 0.0, 0.0)
        assert waves.names == ["z", "a"]  # insertion order

    def test_to_csv_shared_axis(self):
        waves = WaveformSet()
        waves.record_many(0.0, {"x": 1.0, "y": 2.0})
        waves.record_many(1e-9, {"x": 3.0, "y": 4.0})
        csv = waves.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "time,x,y"
        assert len(lines) == 3

    def test_to_csv_mismatched_axis_raises(self):
        waves = WaveformSet()
        waves.record("x", 0.0, 1.0)
        waves.record("x", 1.0, 1.0)
        waves.record("y", 0.0, 1.0)
        with pytest.raises(SimulationError):
            waves.to_csv()

    def test_to_csv_empty(self):
        assert WaveformSet().to_csv() == ""
