"""SymBIST controller -- orchestrates the on-chip self-test.

The controller mirrors the SymBIST infrastructure of the paper (Section IV-4):
a 5-bit counter generating the test stimulus, one window comparator per
invariance (parallel checking) or a single shared comparator switched across
the invariances (sequential checking), and a 1-bit pass/fail decision that can
be exposed through a 2-pin digital test access mechanism.

The electrical state of the IP does not depend on which checker is currently
connected, so the controller evaluates the 2^5 counter codes once and applies
the checkers to the recorded settled residuals; the sequential/parallel choice
only changes the *schedule* (and therefore the test time and the
stop-on-detection accounting), exactly as it would on silicon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..adc.sar_adc import OperatingPoint, SarAdc
from ..circuit.errors import BistConfigurationError
from ..circuit.signals import WaveformSet
from ..circuit.simulator import GlitchModel, TransientSimulator
from ..circuit.units import F_CLK
from .invariance import Invariance, build_invariances
from .stimulus import SymBistStimulus
from .test_time import CheckingMode, TestTimeModel
from .window_comparator import WindowCheckResult, WindowComparator


@dataclass
class SymBistResult:
    """Outcome of one SymBIST run.

    Attributes
    ----------
    passed:
        Overall 1-bit decision: True when every invariance stayed inside its
        comparison window for every settled sample.
    check_results:
        Per-invariance :class:`WindowCheckResult`.
    settled_residuals:
        Per-invariance list of settled residual samples (one per counter code).
    waveforms:
        Residual waveforms including the modelled switching glitches, suitable
        for reproducing Fig. 5 of the paper.
    mode:
        Checking mode (sequential or parallel).
    cycles_scheduled:
        Total clock cycles of the complete test schedule.
    cycles_run:
        Clock cycles actually spent (smaller than ``cycles_scheduled`` when
        stop-on-detection terminates the test early).
    test_time:
        Time actually spent, in seconds.
    first_detection:
        ``(invariance_name, schedule_cycle)`` of the earliest detection in the
        schedule, or ``None`` when the test passes.
    """

    passed: bool
    check_results: Dict[str, WindowCheckResult]
    settled_residuals: Dict[str, List[float]]
    waveforms: WaveformSet
    mode: CheckingMode
    cycles_scheduled: int
    cycles_run: int
    test_time: float
    first_detection: Optional[Tuple[str, int]]

    @property
    def detected(self) -> bool:
        """True when the run flags a defect (the inverse of :attr:`passed`)."""
        return not self.passed

    @property
    def failing_invariances(self) -> List[str]:
        return [name for name, res in self.check_results.items()
                if not res.passed]

    def worst_residuals(self) -> Dict[str, float]:
        return {name: res.worst_residual
                for name, res in self.check_results.items()}


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
    :class:`SymBistController` run and of the batched defect evaluator.
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


class SymBistController:
    """Runs the SymBIST test on a :class:`~repro.adc.sar_adc.SarAdc` instance."""

    def __init__(self, adc: SarAdc,
                 checkers: Sequence[WindowComparator],
                 invariances: Optional[Sequence[Invariance]] = None,
                 stimulus: Optional[SymBistStimulus] = None,
                 mode: CheckingMode = CheckingMode.SEQUENTIAL,
                 clock_frequency: float = F_CLK,
                 stop_on_detection: bool = False,
                 glitch_model: Optional[GlitchModel] = None) -> None:
        self.adc = adc
        self.invariances = list(invariances) if invariances is not None \
            else build_invariances()
        self.stimulus = stimulus or SymBistStimulus()
        self.mode = mode
        self.clock_frequency = clock_frequency
        self.stop_on_detection = stop_on_detection
        self.glitch_model = glitch_model

        checker_map = {c.name: c for c in checkers}
        missing = [inv.name for inv in self.invariances
                   if inv.name not in checker_map]
        if missing:
            raise BistConfigurationError(
                f"no window comparator configured for invariances {missing}")
        self.checkers: Dict[str, WindowComparator] = {
            inv.name: checker_map[inv.name] for inv in self.invariances}

        self.time_model = TestTimeModel(
            n_invariances=len(self.invariances),
            counter_bits=self.stimulus.counter_bits,
            clock_frequency=clock_frequency)

    # -------------------------------------------------------------- execution
    def _evaluate_residuals(self) -> Tuple[Dict[str, List[float]], WaveformSet]:
        """Sweep the counter once and record every invariance residual."""
        op = self.adc.operating_point(input_diff=self.stimulus.input_diff,
                                      input_cm=self.stimulus.input_cm)
        self.adc.sarcell.comparator.rs_latch.reset_state()

        def evaluate(cycle: int, inputs: Mapping[str, float]) -> Dict[str, float]:
            signals = self.adc.evaluate_test_cycle(int(inputs["code"]), op)
            return {inv.name: inv.evaluate(signals) for inv in self.invariances}

        simulator = TransientSimulator(clock_frequency=self.clock_frequency,
                                       glitch_model=self.glitch_model)
        sim = simulator.run(self.stimulus.as_sequence_stimulus(), evaluate)
        settled = {inv.name: list(sim.settled[inv.name].values)
                   for inv in self.invariances}
        return settled, sim.waveforms

    def run(self) -> SymBistResult:
        """Execute the SymBIST test and return the full result."""
        settled, waveforms = self._evaluate_residuals()
        check_results = {
            name: self.checkers[name].check_samples(residuals)
            for name, residuals in settled.items()}

        # Walk the schedule to find the first detection and the cycle count.
        outside = np.zeros((len(self.invariances), self.stimulus.n_cycles),
                           dtype=bool)
        for row, inv in enumerate(self.invariances):
            outside[row, check_results[inv.name].violations] = True
        passed, first, cycles_scheduled, cycles_run = resolve_detection(
            self.mode, outside, self.stop_on_detection)
        first_detection = None if first is None else \
            (self.invariances[first[0]].name, first[1])
        return SymBistResult(
            passed=passed,
            check_results=check_results,
            settled_residuals=settled,
            waveforms=waveforms,
            mode=self.mode,
            cycles_scheduled=cycles_scheduled,
            cycles_run=cycles_run,
            test_time=cycles_run / self.clock_frequency,
            first_detection=first_detection)


def run_symbist(adc: SarAdc, deltas: Mapping[str, float],
                stimulus: Optional[SymBistStimulus] = None,
                mode: CheckingMode = CheckingMode.SEQUENTIAL,
                stop_on_detection: bool = False,
                glitch_model: Optional[GlitchModel] = None) -> SymBistResult:
    """Convenience wrapper: build checkers from a delta table and run the test."""
    checkers = [WindowComparator(name=name, delta=float(delta))
                for name, delta in deltas.items()]
    controller = SymBistController(adc, checkers, stimulus=stimulus, mode=mode,
                                   stop_on_detection=stop_on_detection,
                                   glitch_model=glitch_model)
    return controller.run()
