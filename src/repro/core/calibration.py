"""Window calibration: ``delta = k * sigma`` from a Monte Carlo analysis.

Paper context (Section II): "The parameter delta can be set to k * sigma,
where sigma is the standard deviation of the invariant signal computed by a
Monte Carlo analysis and k is set accordingly so as to avoid yield loss", and
Section VI: "For our experiment we use a comparison window with delta = 5 *
sigma, i.e. k = 5, so as to guarantee that yield loss is negligible."

:func:`calibrate_windows` runs the Monte Carlo analysis on defect-free
instances of the IP: each iteration draws a process-variation sample,
simulates the test stimulus through the golden trace -- the staged residual
kernel that batched defect evaluation shares -- and records the residual of
every invariance at every counter cycle.  The per-invariance sigma is the
standard deviation of the pooled residuals; the window half-width is
``delta = k * sigma + |mean|`` (the systematic part of the residual is
absorbed into the window so that it does not eat into the k-sigma guard
band), with a per-invariance floor for the inherently discrete invariances
(the sign-consistency and complementary-rail checks have zero variance when
defect-free).

Each process-variation instance draws from its own per-sample seed and is
evaluated by :func:`_residual_worker`, the same function the study layer's
``calibrate`` stage runs as one task per instance.  A process keeps one ADC
per factory and re-varies it per instance instead of rebuilding it.  A
sharded, cached or traced calibration is a study (``calibrate`` +
``windows`` stages run through :func:`repro.engine.run_study`) and yields
the very same pools.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence)

import numpy as np

from ..adc.sar_adc import SarAdc
from ..circuit.errors import CalibrationError
from ..circuit.units import VDD
from ..circuit.variation import VariationSpec
from ..engine import Task
from .golden_trace import build_golden_trace
from .invariance import Invariance, build_invariances
from .stimulus import SymBistStimulus
from .window_comparator import WindowComparator

#: Default floors for the window half-width, per invariance.  The discrete
#: invariances (rail sums, sign consistency) have zero defect-free variance,
#: so their windows are set by noise-margin considerations instead.
DEFAULT_DELTA_FLOORS: Dict[str, float] = {
    "sign": 0.5,
    "latch_sum": 0.1 * VDD,
}
#: Generic floor applied to every other invariance.
GENERIC_DELTA_FLOOR = 1e-3


@dataclass
class WindowCalibration:
    """Result of the Monte Carlo window calibration."""

    k: float
    n_samples: int
    sigmas: Dict[str, float]
    means: Dict[str, float]
    deltas: Dict[str, float]
    residual_pools: Dict[str, List[float]] = field(default_factory=dict)

    def delta(self, name: str) -> float:
        try:
            return self.deltas[name]
        except KeyError as exc:
            raise CalibrationError(
                f"no calibrated window for invariance {name!r}") from exc

    def build_checkers(self, hysteresis: float = 0.0) -> List[WindowComparator]:
        """One window comparator per calibrated invariance."""
        return [WindowComparator(name=name, delta=delta, hysteresis=hysteresis)
                for name, delta in self.deltas.items()]

    def scaled(self, k: float) -> "WindowCalibration":
        """Same Monte Carlo data, windows rebuilt for a different ``k``.

        Used by the yield-loss-versus-k study without re-running Monte Carlo.
        """
        deltas = {}
        for name, sigma in self.sigmas.items():
            floor = DEFAULT_DELTA_FLOORS.get(name, GENERIC_DELTA_FLOOR)
            deltas[name] = max(k * sigma + abs(self.means[name]), floor)
        return WindowCalibration(k=k, n_samples=self.n_samples,
                                 sigmas=dict(self.sigmas),
                                 means=dict(self.means), deltas=deltas,
                                 residual_pools=self.residual_pools)


#: The calibration ADCs of this process, one per factory and thread (a
#: serial daemon runs studies on several threads of one process).
_CALIBRATION_ADCS = threading.local()


def _calibration_adc(adc_factory: Callable[[], SarAdc]) -> SarAdc:
    """The kept ADC of ``adc_factory``, built (and checked clean) once."""
    adcs: Dict[Any, SarAdc] = vars(_CALIBRATION_ADCS).setdefault(
        "by_factory", {})
    adc = adcs.get(adc_factory)
    if adc is None:
        adc = adc_factory()
        if adc.has_defect:
            raise CalibrationError(
                "the ADC factory built a device with defects or drawn "
                "variation; Monte Carlo calibration needs a clean, nominal "
                "device to re-vary")
        adcs[adc_factory] = adc
    return adc


def _residual_worker(context: Mapping[str, Any], task: Optional[Task],
                     rng: np.random.Generator,
                     inputs: Mapping[str, Any]) -> Dict[str, List[float]]:
    """Residuals of one defect-free MC instance, per invariance per cycle.

    The instance is the factory's kept ADC, reset to nominal and re-varied
    from ``rng`` -- the same device a freshly built ADC plus
    ``sample_variation`` is -- and its residuals come from one staged
    :func:`~repro.core.golden_trace.build_golden_trace` sweep.  Called
    in-process by :func:`collect_defect_free_residuals` and as the engine
    worker of the study layer's ``calibrate`` stage; only ``context`` and
    ``rng`` are consulted.
    """
    adc = _calibration_adc(context["adc_factory"])
    adc.reset_variation()
    adc.sample_variation(rng, context["variation_spec"])
    trace = build_golden_trace(adc, context["stimulus"],
                               context["invariances"])
    return {name: column.tolist() for name, column in trace.residuals.items()}


def calibration_task_spec(factory_name: str,
                          stimulus: SymBistStimulus,
                          variation_spec: Optional[VariationSpec],
                          invariance_names: Sequence[str]) -> Dict[str, Any]:
    """Cache-key spec of one defect-free Monte Carlo residual task.

    Used by every study's ``calibrate`` stage (``repro-campaign calibrate``
    and ``run`` alike), so a calibration cached by one flow is replayed by
    the other.
    """
    return {"driver": "symbist-calibration",
            "factory": factory_name,
            "stimulus": asdict(stimulus),
            "variation": asdict(variation_spec)
            if variation_spec is not None else None,
            "invariances": list(invariance_names)}


def collect_defect_free_residuals(
        adc_factory: Callable[[], SarAdc] = SarAdc,
        invariances: Optional[Sequence[Invariance]] = None,
        stimulus: Optional[SymBistStimulus] = None,
        n_monte_carlo: int = 100,
        rng: Optional[np.random.Generator] = None,
        variation_spec: Optional[VariationSpec] = None
        ) -> Dict[str, List[float]]:
    """Monte Carlo residual pools of every invariance on defect-free circuits.

    Each Monte Carlo instance runs :func:`_residual_worker` with its own
    seed: when ``rng`` is given, the per-sample seeds are drawn from it up
    front in one vectorised draw (same ``rng`` seed, same pools); when it is
    omitted they are ``SeedSequence(0)`` children.  Pools are assembled in
    sample order, ``n_cycles`` consecutive residuals per instance, which is
    the layout :func:`repro.analysis.empirical_yield_loss` relies on.
    """
    if n_monte_carlo <= 0:
        raise CalibrationError("n_monte_carlo must be positive")
    invariances = list(invariances) if invariances is not None \
        else build_invariances()
    if rng is None:
        seeds: List[Any] = list(
            np.random.SeedSequence(0).spawn(n_monte_carlo))
    else:
        seeds = [int(s) for s in
                 rng.integers(0, 2 ** 63 - 1, size=n_monte_carlo)]

    context = {"adc_factory": adc_factory, "invariances": invariances,
               "stimulus": stimulus or SymBistStimulus(),
               "variation_spec": variation_spec}
    pools: Dict[str, List[float]] = {inv.name: [] for inv in invariances}
    for seed in seeds:
        rows = _residual_worker(context, None, np.random.default_rng(seed), {})
        for name, values in rows.items():
            pools[name].extend(values)
    return pools


def windows_from_pools(pools: Mapping[str, Sequence[float]], k: float,
                       delta_floors: Optional[Mapping[str, float]] = None
                       ) -> "tuple[Dict[str, float], Dict[str, float], Dict[str, float]]":
    """Derive ``(sigmas, means, deltas)`` from residual pools.

    The reduction step of :func:`calibrate_windows`, shared with the study
    layer's ``windows`` stage (:mod:`repro.engine.pipeline`) so both paths
    produce bit-identical windows from the same pools: per invariance,
    ``sigma``/``mean`` over the pooled residuals and
    ``delta = max(k * sigma + |mean|, floor)``.
    """
    if k <= 0:
        raise CalibrationError(f"k must be positive, got {k}")
    floors = dict(DEFAULT_DELTA_FLOORS)
    if delta_floors:
        floors.update(delta_floors)

    sigmas: Dict[str, float] = {}
    means: Dict[str, float] = {}
    deltas: Dict[str, float] = {}
    for name, residuals in pools.items():
        values = np.asarray(residuals, dtype=float)
        sigma = float(np.std(values))
        mean = float(np.mean(values))
        floor = floors.get(name, GENERIC_DELTA_FLOOR)
        sigmas[name] = sigma
        means[name] = mean
        deltas[name] = max(k * sigma + abs(mean), floor)
    return sigmas, means, deltas


def calibration_from_windows(payload: Mapping[str, Any],
                             order: Sequence[str]) -> WindowCalibration:
    """Rebuild a :class:`WindowCalibration` from a windows-task payload.

    The pipeline windows reductions (:mod:`repro.engine.pipeline`) return
    ``{"k", "n_samples", "sigmas", "means", "deltas"}`` dictionaries that may
    have round-tripped through the JSON result cache; this re-orders the
    per-invariance entries to the canonical ``order`` so checker order never
    depends on JSON key ordering of a cache-replayed artifact.
    """
    names = [name for name in order if name in payload["deltas"]]
    return WindowCalibration(
        k=payload["k"], n_samples=payload["n_samples"],
        sigmas={name: payload["sigmas"][name] for name in names},
        means={name: payload["means"][name] for name in names},
        deltas={name: payload["deltas"][name] for name in names})


def calibrate_windows(adc_factory: Callable[[], SarAdc] = SarAdc,
                      invariances: Optional[Sequence[Invariance]] = None,
                      stimulus: Optional[SymBistStimulus] = None,
                      k: float = 5.0,
                      n_monte_carlo: int = 100,
                      rng: Optional[np.random.Generator] = None,
                      variation_spec: Optional[VariationSpec] = None,
                      delta_floors: Optional[Mapping[str, float]] = None,
                      keep_pools: bool = False) -> WindowCalibration:
    """Run the Monte Carlo analysis and derive the comparison windows.

    Parameters
    ----------
    k:
        The guard-band multiplier (5 in the paper's experiment).
    n_monte_carlo:
        Number of defect-free Monte Carlo samples.
    delta_floors:
        Optional per-invariance overrides of the window floors.
    keep_pools:
        When True the raw residual pools are kept on the returned object
        (useful for the yield-loss study); they are dropped otherwise to keep
        the calibration object light.
    """
    if k <= 0:
        raise CalibrationError(f"k must be positive, got {k}")
    pools = collect_defect_free_residuals(
        adc_factory, invariances, stimulus, n_monte_carlo, rng, variation_spec)
    sigmas, means, deltas = windows_from_pools(pools, k, delta_floors)
    return WindowCalibration(k=k, n_samples=n_monte_carlo, sigmas=sigmas,
                             means=means, deltas=deltas,
                             residual_pools=pools if keep_pools else {})
