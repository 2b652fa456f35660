"""Waveform traces recorded during sampled-time simulations.

SymBIST decisions are made on *sampled, settled* node voltages, but the paper
(Fig. 5) also shows the continuous invariance signal with switching glitches
that must not trigger a detection.  The classes here hold both: a
:class:`Trace` is a time/value series for one named signal, and a
:class:`WaveformSet` groups the traces recorded during one simulation run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import SimulationError


@dataclass
class Trace:
    """A sampled waveform: monotonically non-decreasing times and values."""

    name: str
    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def append(self, time: float, value: float) -> None:
        """Append one sample; times must not go backwards."""
        if self.times and time < self.times[-1]:
            raise SimulationError(
                f"trace {self.name!r}: non-monotonic time {time} after "
                f"{self.times[-1]}")
        self.times.append(float(time))
        self.values.append(float(value))

    def extend(self, times: Iterable[float], values: Iterable[float]) -> None:
        for t, v in zip(times, values):
            self.append(t, v)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(zip(self.times, self.values))

    # ------------------------------------------------------------------ views
    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(times, values)`` as numpy arrays."""
        return np.asarray(self.times, dtype=float), np.asarray(self.values,
                                                               dtype=float)

    def value_at(self, time: float) -> float:
        """Zero-order-hold lookup of the value at ``time``."""
        if not self.times:
            raise SimulationError(f"trace {self.name!r} is empty")
        times = np.asarray(self.times)
        idx = int(np.searchsorted(times, time, side="right")) - 1
        idx = max(idx, 0)
        return self.values[idx]

    # ------------------------------------------------------------- statistics
    def min(self) -> float:
        self._require_samples()
        return float(np.min(self.values))

    def max(self) -> float:
        self._require_samples()
        return float(np.max(self.values))

    def mean(self) -> float:
        self._require_samples()
        return float(np.mean(self.values))

    def std(self) -> float:
        self._require_samples()
        return float(np.std(self.values))

    def _require_samples(self) -> None:
        if not self.values:
            raise SimulationError(f"trace {self.name!r} is empty")


class WaveformSet:
    """A named collection of :class:`Trace` objects from one simulation run."""

    def __init__(self, name: str = "waveforms") -> None:
        self.name = name
        self._traces: Dict[str, Trace] = {}

    def trace(self, name: str) -> Trace:
        """Return the trace called ``name``, creating it if necessary."""
        if name not in self._traces:
            self._traces[name] = Trace(name)
        return self._traces[name]

    def record(self, name: str, time: float, value: float) -> None:
        """Append one sample to the trace called ``name``."""
        self.trace(name).append(time, value)

    def record_many(self, time: float, samples: Dict[str, float]) -> None:
        """Append one sample per entry of ``samples`` at the same time."""
        for name, value in samples.items():
            self.record(name, time, value)

    def __contains__(self, name: str) -> bool:
        return name in self._traces

    def __getitem__(self, name: str) -> Trace:
        try:
            return self._traces[name]
        except KeyError as exc:
            raise SimulationError(
                f"waveform set {self.name!r} has no trace {name!r}") from exc

    def __len__(self) -> int:
        return len(self._traces)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self._traces.values())

    @property
    def names(self) -> List[str]:
        return list(self._traces.keys())

    def to_csv(self, trace_names: Optional[Sequence[str]] = None) -> str:
        """Render selected traces to a CSV string (shared time axis required)."""
        names = list(trace_names) if trace_names is not None else self.names
        if not names:
            return ""
        reference = self[names[0]]
        lines = ["time," + ",".join(names)]
        for i, t in enumerate(reference.times):
            row = [f"{t:.9g}"]
            for name in names:
                trace = self[name]
                if len(trace) != len(reference):
                    raise SimulationError(
                        "to_csv requires traces sampled on a shared time axis")
                row.append(f"{trace.values[i]:.9g}")
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"
