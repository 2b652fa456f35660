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

from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..circuit.errors import CalibrationError
from ..core.calibration import WindowCalibration
from ..engine import ResultCodec
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


def empirical_yield_loss(calibration: WindowCalibration,
                         k: float) -> YieldLossPoint:
    """Estimate yield loss for ``k`` from calibration residual pools.

    Requires a calibration created with ``keep_pools=True``: the pooled
    residuals are grouped back into one run per Monte Carlo instance and
    each instance is re-checked against windows rebuilt for ``k``.  The run
    length is the pool size divided by ``calibration.n_samples`` -- the
    device's SymBIST cycle count, whatever its resolution.
    """
    if not calibration.residual_pools:
        raise CalibrationError(
            "empirical_yield_loss needs a calibration with keep_pools=True")
    if calibration.n_samples <= 0:
        raise CalibrationError(
            f"calibration reports {calibration.n_samples} Monte Carlo "
            f"instances; cannot group its residual pools into runs")
    scaled = calibration.scaled(k)
    analytic = analytic_yield_loss(k)

    n_instances = calibration.n_samples
    fails_per_instance = np.zeros(n_instances, dtype=bool)
    continuous = 0
    for name, pool in calibration.residual_pools.items():
        if name in _DISCRETE_INVARIANCES:
            continue
        values = np.asarray(pool, dtype=float)
        if values.size == 0 or values.size % n_instances != 0:
            raise CalibrationError(
                f"residual pool of {name!r} ({values.size} samples) does not "
                f"split into {n_instances} equal per-instance runs")
        runs = values.reshape(n_instances, -1)
        continuous += 1
        delta = scaled.delta(name)
        fails_per_instance |= (np.abs(runs) > delta).any(axis=1)
    if not continuous:
        raise CalibrationError("calibration has no continuous invariance pools")
    failures = int(fails_per_instance.sum())
    center, half = proportion_ci(failures, n_instances)
    return YieldLossPoint(k=k,
                          analytic_single_check=analytic.analytic_single_check,
                          analytic_per_run=analytic.analytic_per_run,
                          empirical=failures / n_instances,
                          empirical_ci_half_width=half)


#: Cache codec for yield-loss points (plain dataclass of floats), declared
#: by the study registry's ``yield`` stage kind.
POINT_CODEC = ResultCodec(encode=asdict,
                          decode=lambda data: YieldLossPoint(**data))


def yield_loss_sweep(calibration: Optional[WindowCalibration] = None,
                     k_values: Sequence[float] = (2.0, 3.0, 4.0, 5.0, 6.0)
                     ) -> List[YieldLossPoint]:
    """Yield loss across a sweep of ``k`` values (the E5 experiment).

    Empirical points when ``calibration`` carries residual pools, analytic
    ones otherwise.  The study layer's ``yield`` stage computes the same
    empirical points, one task per ``k``.
    """
    if calibration is not None and calibration.residual_pools:
        return [empirical_yield_loss(calibration, float(k)) for k in k_values]
    return [analytic_yield_loss(float(k)) for k in k_values]
