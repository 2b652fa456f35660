"""Yield-loss analysis versus the window-size multiplier ``k``.

Paper context: the comparison window is ``delta = k * sigma`` and "k is set
accordingly so as to avoid yield loss" (Section II); the experiment uses
``k = 5`` "so as to guarantee that yield loss is negligible" (Section VI).

Yield loss here is the probability that a *defect-free* circuit fails the
SymBIST test because process variations push an invariant signal outside its
window.  Two estimators are provided:

* an **analytic** Gaussian model: each settled check of invariance ``i`` fails
  with probability ``erfc(k / sqrt(2))``; a test run performs
  ``n_cycles`` checks per (continuous) invariance, assumed independent across
  Monte Carlo instances but fully correlated across cycles of the same
  instance in the conservative variant;
* an **empirical** Monte Carlo estimator: re-use the residual pools collected
  during calibration, rebuild the windows for each candidate ``k`` and count
  the defect-free instances that would fail.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..circuit.errors import CalibrationError
from ..core.calibration import WindowCalibration, collect_defect_free_residuals
from ..core.stimulus import SymBistStimulus
from ..engine import (CampaignEngine, ExecutionBackend, ResultCache,
                      ResultCodec, Task, TaskGraph, canonical_json)
from ..engine.telemetry import TelemetryBus
from .statistics import (gaussian_exceedance_probability, per_test_to_per_run,
                         proportion_ci)

#: Invariances whose defect-free residual is exactly zero (discrete checks);
#: they never contribute to yield loss.
_DISCRETE_INVARIANCES = ("sign", "latch_sum")


@dataclass(frozen=True)
class YieldLossPoint:
    """Yield loss estimate for one value of ``k``."""

    k: float
    analytic_single_check: float
    analytic_per_run: float
    empirical: Optional[float] = None
    empirical_ci_half_width: Optional[float] = None

    @property
    def analytic_ppm(self) -> float:
        """Analytic per-run yield loss expressed in parts-per-million."""
        return 1e6 * self.analytic_per_run


def analytic_yield_loss(k: float, n_continuous_invariances: int = 4,
                        checks_per_invariance: int = 32,
                        correlated_within_run: bool = True) -> YieldLossPoint:
    """Gaussian yield-loss model for one ``k``.

    With ``correlated_within_run`` (the default, and the realistic case: the
    residual of a given die barely changes across counter codes) a die fails
    when its single residual draw exceeds ``k * sigma``, so the per-run
    failure probability aggregates over invariances only.  The uncorrelated
    variant multiplies over every check and is a pessimistic upper bound.
    """
    if k <= 0:
        raise CalibrationError("k must be positive")
    p_single = gaussian_exceedance_probability(k)
    n_checks = n_continuous_invariances if correlated_within_run else \
        n_continuous_invariances * checks_per_invariance
    return YieldLossPoint(k=k, analytic_single_check=p_single,
                          analytic_per_run=per_test_to_per_run(p_single,
                                                               n_checks))


def empirical_yield_loss(calibration: WindowCalibration, k: float,
                         n_cycles: int = 32) -> YieldLossPoint:
    """Estimate yield loss for ``k`` from calibration residual pools.

    Requires a calibration created with ``keep_pools=True``: the pooled
    residuals are grouped back into per-instance runs of ``n_cycles`` samples
    and each instance is re-checked against windows rebuilt for ``k``.
    """
    if not calibration.residual_pools:
        raise CalibrationError(
            "empirical_yield_loss needs a calibration with keep_pools=True")
    scaled = calibration.scaled(k)
    analytic = analytic_yield_loss(k)

    n_instances = None
    failures = 0
    for name, pool in calibration.residual_pools.items():
        if name in _DISCRETE_INVARIANCES:
            continue
        values = np.asarray(pool, dtype=float)
        if values.size % n_cycles != 0:
            raise CalibrationError(
                f"residual pool of {name!r} ({values.size} samples) is not a "
                f"multiple of {n_cycles} cycles")
        runs = values.reshape(-1, n_cycles)
        if n_instances is None:
            n_instances = runs.shape[0]
            fails_per_instance = np.zeros(n_instances, dtype=bool)
        delta = scaled.delta(name)
        fails_per_instance |= (np.abs(runs) > delta).any(axis=1)
    if n_instances is None:
        raise CalibrationError("calibration has no continuous invariance pools")
    failures = int(fails_per_instance.sum())
    center, half = proportion_ci(failures, n_instances)
    return YieldLossPoint(k=k,
                          analytic_single_check=analytic.analytic_single_check,
                          analytic_per_run=analytic.analytic_per_run,
                          empirical=failures / n_instances,
                          empirical_ci_half_width=half)


def _yield_loss_worker(context: Mapping[str, Any], task: Task,
                       rng: np.random.Generator,
                       inputs: Mapping[str, Any]) -> YieldLossPoint:
    """Engine worker: one ``(k, yield)`` point of the sweep."""
    calibration: Optional[WindowCalibration] = context["calibration"]
    if calibration is not None and calibration.residual_pools:
        return empirical_yield_loss(calibration, task.payload,
                                    context["n_cycles"])
    return analytic_yield_loss(task.payload)


#: Cache codec for yield-loss points (plain dataclass of floats).
POINT_CODEC = ResultCodec(encode=asdict,
                          decode=lambda data: YieldLossPoint(**data))


def _pools_fingerprint(calibration: Optional[WindowCalibration]) -> str:
    """Stable digest of the residual pools a sweep point depends on."""
    if calibration is None or not calibration.residual_pools:
        return "analytic"
    body = canonical_json(calibration.residual_pools)
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def yield_loss_sweep(calibration: Optional[WindowCalibration] = None,
                     k_values: Sequence[float] = (2.0, 3.0, 4.0, 5.0, 6.0),
                     n_cycles: int = 32,
                     backend: Optional[ExecutionBackend] = None,
                     cache: Optional[ResultCache] = None,
                     telemetry: Optional[TelemetryBus] = None
                     ) -> List[YieldLossPoint]:
    """Yield loss across a sweep of ``k`` values (the E5 experiment).

    Each ``k`` is one deterministic engine task, so the sweep can be sharded
    or cached like any other campaign.

    Parameters
    ----------
    backend:
        Campaign-engine execution backend (see :mod:`repro.engine`); the
        default serial backend reproduces the historical loop exactly, and
        ``SharedMemoryBackend(max_workers=N)`` shards the ``k`` points
        across processes with identical results.
    cache:
        Optional :class:`~repro.engine.ResultCache`; per-``k`` points are
        stored keyed by ``k``, ``n_cycles`` and a digest of the
        calibration's residual pools, so re-running an identical sweep
        replays them instead of recomputing.
    """
    # The pools digest is cache-key material only; hashing ~n_samples*cycles
    # floats is pointless on uncached sweeps.
    pools_token = _pools_fingerprint(calibration) if cache is not None else None
    tasks = TaskGraph()
    for index, k in enumerate(k_values):
        spec = None
        if pools_token is not None:
            spec = {"driver": "yield-loss-sweep", "k": float(k),
                    "n_cycles": n_cycles, "pools": pools_token}
        tasks.add(Task(task_id=f"yield/{index}/k={k:g}", payload=float(k),
                       spec=spec, deterministic=True))
    engine = CampaignEngine(backend=backend, cache=cache,
                            telemetry=telemetry)
    run = engine.run(tasks, _yield_loss_worker,
                     context={"calibration": calibration,
                              "n_cycles": n_cycles},
                     codec=POINT_CODEC)
    return list(run.results)
