"""SymBIST invariances for the SAR ADC IP (paper Eqs. (2)-(5)).

An :class:`Invariance` is a named function of the observed node voltages whose
value (the *residual*) is zero -- up to process variations -- in defect-free
operation.  The six invariances built for the SAR ADC IP are:

=============  ===========================================  ==================
name           definition                                    paper equation
=============  ===========================================  ==================
``msb_sum``    ``M+ + M- - VREF[32]``                        Eq. (2), first
``lsb_sum``    ``L+ + L- - VREF[32]``                        Eq. (2), second
``dac_sum``    ``DAC+ + DAC- - 2*Vcm_nominal``               Eq. (3)
``preamp_cm``  ``LIN+ + LIN- - 2*Vcm2_nominal``              Eq. (4)
``sign``       ``sgn(Q+ - Q-) - sgn(LIN+ - LIN-)``           Eq. (5), first
``latch_sum``  ``Q+ + Q- - VDD``                             Eq. (5), second
=============  ===========================================  ==================

Design note on the references: the two sub-DAC invariances compare against the
*measured* ``VREF[32]`` (the checker taps the top of the reference ladder), so
they are ratiometric; the ``dac_sum`` and ``preamp_cm`` invariances compare
against fixed design constants (the supply-derived ``2*Vcm`` and the nominal
pre-amplifier common mode), which is what makes the Vcm generator directly
observable through Eq. (3) -- the paper states "The Vcm Generator is checked
directly with the invariance in Eq. (3)".

The ``sign`` invariance uses a small dead band: when the pre-amplifier
differential output is smaller than ``sign_deadband`` the comparison is
metastable by design and no consistency requirement is imposed (this mirrors
the clocked checker only sampling valid decisions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..circuit.errors import BistConfigurationError
from ..circuit.units import VCM2_NOMINAL, VCM_NOMINAL, VDD

#: Dead band (in volts of pre-amplifier differential output) inside which the
#: sign-consistency invariance is not evaluated.
SIGN_DEADBAND = 0.02

#: Residual magnitude reported by the sign invariance when the latched
#: decision contradicts the pre-amplifier polarity.
SIGN_VIOLATION_MAGNITUDE = 2.0


@dataclass(frozen=True)
class Invariance:
    """One SymBIST invariance.

    Attributes
    ----------
    name:
        Short identifier used in reports and calibration tables.
    description:
        Human-readable statement of the invariant property.
    residual:
        ``residual(signals)``; zero in defect-free operation.  ``signals``
        maps each signal name to one cycle's float or to a float64 column
        over all cycles (:mod:`repro.core.golden_trace`); the residual is a
        float or a column accordingly, with the same float arithmetic.
    covered_blocks:
        Hierarchy paths of the blocks this invariance primarily observes
        (used for reporting; coverage itself is always measured, not assumed).
    paper_equation:
        The equation of the paper this invariance reproduces.
    """

    name: str
    description: str
    residual: Callable[[Mapping[str, Any]], Any]
    covered_blocks: Tuple[str, ...] = ()
    paper_equation: str = ""

    def evaluate(self, signals: Mapping[str, float]) -> float:
        """Residual value of the invariance for one set of node voltages."""
        return float(self.residual(signals))


def _require(signals: Mapping[str, Any], *names: str) -> List[Any]:
    """The named signals, each a float (one cycle) or a float64 column."""
    try:
        return [signals[n] for n in names]
    except KeyError as exc:
        raise BistConfigurationError(
            f"invariance evaluation is missing signal {exc.args[0]!r}") from exc


def _msb_sum(signals: Mapping[str, Any]) -> Any:
    m_p, m_m, vref32 = _require(signals, "M+", "M-", "VREF32")
    return m_p + m_m - vref32


def _lsb_sum(signals: Mapping[str, Any]) -> Any:
    l_p, l_m, vref32 = _require(signals, "L+", "L-", "VREF32")
    return l_p + l_m - vref32


def _dac_sum(signals: Mapping[str, Any]) -> Any:
    dac_p, dac_m = _require(signals, "DAC+", "DAC-")
    return dac_p + dac_m - 2.0 * VCM_NOMINAL


def _preamp_cm(signals: Mapping[str, Any]) -> Any:
    lin_p, lin_m = _require(signals, "LIN+", "LIN-")
    return lin_p + lin_m - 2.0 * VCM2_NOMINAL


def _sign_consistency(signals: Mapping[str, Any]) -> Any:
    lin_p, lin_m, q_p, q_m = _require(signals, "LIN+", "LIN-", "Q+", "Q-")
    lin_diff = lin_p - lin_m
    expected = np.copysign(1.0, lin_diff)
    observed = np.where(q_p != q_m, np.copysign(1.0, q_p - q_m), 0.0)
    consistent = (np.abs(lin_diff) < SIGN_DEADBAND) | (observed == expected)
    return np.where(consistent, 0.0, SIGN_VIOLATION_MAGNITUDE * expected)


def _latch_sum(signals: Mapping[str, Any]) -> Any:
    q_p, q_m = _require(signals, "Q+", "Q-")
    return q_p + q_m - VDD


def build_invariances() -> List[Invariance]:
    """The six SymBIST invariances of the SAR ADC IP, in paper order."""
    return [
        Invariance(
            name="msb_sum",
            description="SUBDAC1 complementary outputs: M+ + M- = VREF[32]",
            residual=_msb_sum,
            covered_blocks=("subdac1", "reference_buffer"),
            paper_equation="Eq. (2a)"),
        Invariance(
            name="lsb_sum",
            description="SUBDAC2 complementary outputs: L+ + L- = VREF[32]",
            residual=_lsb_sum,
            covered_blocks=("subdac2", "reference_buffer"),
            paper_equation="Eq. (2b)"),
        Invariance(
            name="dac_sum",
            description="DAC differential outputs: DAC+ + DAC- = 2*Vcm",
            residual=_dac_sum,
            covered_blocks=("sc_array", "vcm_generator", "subdac1", "subdac2",
                            "bandgap"),
            paper_equation="Eq. (3)"),
        Invariance(
            name="preamp_cm",
            description="Pre-amplifier common mode: LIN+ + LIN- = 2*Vcm2",
            residual=_preamp_cm,
            covered_blocks=("preamplifier", "offset_compensation", "bandgap"),
            paper_equation="Eq. (4)"),
        Invariance(
            name="sign",
            description="Latched decision agrees with the pre-amplifier "
                        "polarity: sgn(Q+ - Q-) = sgn(LIN+ - LIN-)",
            residual=_sign_consistency,
            covered_blocks=("comparator_latch", "rs_latch", "preamplifier"),
            paper_equation="Eq. (5a)"),
        Invariance(
            name="latch_sum",
            description="Latch complementary outputs: Q+ + Q- = VDD",
            residual=_latch_sum,
            covered_blocks=("rs_latch", "comparator_latch"),
            paper_equation="Eq. (5b)"),
    ]


def invariance_by_name(name: str,
                       invariances: Sequence[Invariance] = ()) -> Invariance:
    """Look up an invariance by name (defaults to the standard six)."""
    pool = list(invariances) if invariances else build_invariances()
    for inv in pool:
        if inv.name == name:
            return inv
    raise BistConfigurationError(f"unknown invariance {name!r}")


def evaluate_all(invariances: Sequence[Invariance],
                 signals: Mapping[str, float]) -> Dict[str, float]:
    """Evaluate every invariance on one set of node voltages."""
    return {inv.name: inv.evaluate(signals) for inv in invariances}
