"""Mapping from structural device defects to behavioral block parameters.

The SAR ADC blocks in this package are *behavioral* models sitting on top of
*structural* netlists: every block owns a
:class:`~repro.circuit.netlist.Netlist` of primitive devices and, when it is
evaluated, it converts the defect state of those devices into changes of its
behavioral parameters (gain loss, offsets, stuck nodes, missing ladder taps,
switch stuck-on/off, ...).

This module collects the generic pieces of that translation so that every
block uses the same conventions:

* :func:`mos_state` classifies the defect of a MOS transistor into a small set
  of behavioral conduction states,
* :func:`switch_state` decides whether a (MOS) switch is effectively on or off
  given its intended control value,
* :func:`passive_state` returns the effective electrical role of a resistor or
  capacitor (value, shorted, or open),
* :class:`StageEffect` accumulates the behavioral consequences of several
  device defects inside one amplifier/buffer stage,
* :func:`clamp_column` and :func:`tanh_column` are the two element-wise
  operations of the blocks' column kernels that numpy cannot be trusted to
  compute as Python does (see their docstrings).

The mappings are deliberately conservative and documented: they follow the
standard reasoning used in defect-oriented A/M-S test (a drain-source short
makes the device permanently conducting, an open terminal removes it from the
circuit, a gate-source short turns an enhancement device off, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Tuple

import numpy as np

from ..circuit.components import Device, DeviceKind, PullDirection
from ..circuit.errors import DefectError
from ..circuit.units import VDD, VSS


class MosState(str, Enum):
    """Behavioral conduction state of a (possibly defective) MOS transistor."""

    NORMAL = "normal"          # defect-free, or a defect with negligible effect
    STUCK_ON = "stuck_on"      # permanently conducting (e.g. drain-source short)
    STUCK_OFF = "stuck_off"    # permanently off (open drain/source, gate-source short)
    DEGRADED = "degraded"      # still works but with altered strength / leakage


class PassiveState(str, Enum):
    """Effective electrical role of a (possibly defective) passive device."""

    VALUE = "value"    # behaves as a resistor/capacitor with ``effective_value``
    SHORTED = "shorted"
    OPEN = "open"


def mos_state(device: Device) -> MosState:
    """Classify the behavioral effect of the defect injected into a MOS device.

    The classification follows the usual defect-oriented reasoning:

    * ``d``-``s`` short: channel permanently conducting -> ``STUCK_ON``;
    * ``g``-``s`` short: V_gs = 0 for an enhancement device -> ``STUCK_OFF``;
    * ``g``-``d`` short: diode-connected -> ``DEGRADED`` (still conducts);
    * bulk shorts: forward-biased junctions / body effect -> ``DEGRADED``;
    * ``d`` or ``s`` open: device removed from the signal path -> ``STUCK_OFF``;
    * ``g`` open: gate floats to the weak pull -> ``STUCK_ON`` when the pull
      direction turns the device on, ``STUCK_OFF`` otherwise, ``DEGRADED``
      when no pull is recorded;
    * ``b`` open: body floats -> ``DEGRADED``.
    """
    if device.kind not in (DeviceKind.NMOS, DeviceKind.PMOS):
        raise DefectError(f"mos_state() expects an NMOS/PMOS, got {device.kind}")
    defect = device.defect
    if defect.is_clean:
        return MosState.NORMAL

    pair = defect.shorted_terminals
    if pair is not None:
        terms = set(pair)
        if terms == {"d", "s"}:
            return MosState.STUCK_ON
        if terms == {"g", "s"}:
            return MosState.STUCK_OFF
        if terms == {"g", "d"}:
            return MosState.DEGRADED
        # any short involving the bulk
        return MosState.DEGRADED

    term = defect.open_terminal
    if term in ("d", "s"):
        return MosState.STUCK_OFF
    if term == "g":
        pull = defect.open_pull
        if pull is None:
            return MosState.DEGRADED
        turns_on = (pull is PullDirection.UP) == (device.kind is DeviceKind.NMOS)
        return MosState.STUCK_ON if turns_on else MosState.STUCK_OFF
    if term == "b":
        return MosState.DEGRADED
    return MosState.NORMAL


def switch_state(device: Device, nominal_on: bool) -> bool:
    """Return whether a switch effectively conducts given its intended state.

    ``device`` may be a :data:`DeviceKind.SWITCH` or a MOS transistor used as
    a switch.  The mapping is:

    * ``p``-``n`` (or ``d``-``s``) short: always on;
    * ``p``/``n`` (or ``d``/``s``) open: always off;
    * control terminal shorted to a signal terminal: control corrupted, the
      switch follows the signal and is treated as stuck on;
    * control terminal open: the gate floats to the weak pull -- stuck on when
      the pull direction closes the switch, stuck off otherwise (stuck off
      when no pull is recorded);
    * passive-value defects do not apply to switches.
    """
    if device.kind is DeviceKind.SWITCH:
        signal_terms, ctrl_term = ("p", "n"), "ctrl"
    elif device.kind in (DeviceKind.NMOS, DeviceKind.PMOS):
        signal_terms, ctrl_term = ("d", "s"), "g"
    else:
        raise DefectError(
            f"switch_state() expects a switch or MOS device, got {device.kind}")

    defect = device.defect
    if defect.is_clean:
        return nominal_on

    pair = defect.shorted_terminals
    if pair is not None:
        terms = set(pair)
        if terms == set(signal_terms):
            return True
        if ctrl_term in terms:
            return True
        return nominal_on  # e.g. bulk short on a MOS switch: keeps switching

    term = defect.open_terminal
    if term in signal_terms:
        return False
    if term == ctrl_term:
        pull = defect.open_pull
        if pull is None:
            return False
        closes = (pull is PullDirection.UP)
        if device.kind is DeviceKind.PMOS:
            closes = not closes
        return closes
    return nominal_on


def passive_state(device: Device) -> Tuple[PassiveState, float]:
    """Return the effective role and value of a resistor or capacitor.

    The returned value is the defect-scaled value for ``VALUE`` devices, the
    short resistance for ``SHORTED`` devices and the open resistance for
    ``OPEN`` devices (callers that model capacitors typically treat ``OPEN``
    as "capacitance removed" and ``SHORTED`` as "top and bottom plate tied").
    """
    if not device.kind.is_passive:
        raise DefectError(
            f"passive_state() expects a resistor/capacitor, got {device.kind}")
    defect = device.defect
    if defect.shorted_terminals is not None:
        return PassiveState.SHORTED, defect.short_resistance
    if defect.open_terminal is not None:
        return PassiveState.OPEN, defect.open_resistance
    return PassiveState.VALUE, device.effective_value()


def effective_resistance(device: Device) -> float:
    """Resistance presented by a (possibly defective) resistor."""
    state, value = passive_state(device)
    if state is PassiveState.VALUE:
        return value
    return value  # short resistance or open resistance


def effective_capacitance(device: Device) -> Tuple[float, bool]:
    """Capacitance presented by a (possibly defective) capacitor.

    Returns ``(capacitance, plates_shorted)``.  An open capacitor contributes
    zero capacitance; a shorted capacitor keeps its value but ties its plates
    (the caller must honour the ``plates_shorted`` flag).
    """
    state, value = passive_state(device)
    if state is PassiveState.OPEN:
        return 0.0, False
    if state is PassiveState.SHORTED:
        return device.effective_value(), True
    return value, False


def clamp_column(values: np.ndarray, low: float, high: float) -> np.ndarray:
    """``min(max(v, low), high)`` per element, exactly as Python computes it.

    Python's ``max(v, low)`` keeps ``v`` unless ``low > v`` and ``min(w,
    high)`` keeps ``w`` unless ``high < w``; the two ``np.where`` calls make
    the same choices, so a ``-0.0`` (or NaN) input survives as it would in
    the scalar code.  ``np.clip`` / ``np.maximum`` may return either zero
    when comparing ``-0.0`` with ``0.0`` on their SIMD paths.
    """
    values = np.where(low > values, low, values)
    return np.where(high < values, high, values)


def tanh_column(values: np.ndarray) -> np.ndarray:
    """libm ``tanh`` of every element (``math.tanh`` over ``.tolist()``).

    numpy's own ``tanh`` uses SIMD approximations on some hosts whose
    results differ from libm's in the last bit.
    """
    return np.array([math.tanh(v) for v in values.tolist()], dtype=float)


@dataclass
class StageEffect:
    """Aggregate behavioral effect of defects inside one amplifier stage.

    Attributes
    ----------
    gain_scale:
        Multiplicative change of the stage differential gain (1.0 = nominal).
    offset:
        Additional input-referred offset in volts.
    cm_shift:
        Shift of the stage output common-mode voltage in volts.
    stuck_positive / stuck_negative:
        When not ``None``, the positive / negative output is stuck at the
        given voltage regardless of the input.
    bias_scale:
        Multiplicative change of the stage bias current (propagates to speed
        and, for the behavioral model, to gain and common mode).
    """

    gain_scale: float = 1.0
    offset: float = 0.0
    cm_shift: float = 0.0
    stuck_positive: Optional[float] = None
    stuck_negative: Optional[float] = None
    bias_scale: float = 1.0

    def combine(self, other: "StageEffect") -> "StageEffect":
        """Merge two effects (used when several devices are defective)."""
        return StageEffect(
            gain_scale=self.gain_scale * other.gain_scale,
            offset=self.offset + other.offset,
            cm_shift=self.cm_shift + other.cm_shift,
            stuck_positive=(other.stuck_positive
                            if other.stuck_positive is not None
                            else self.stuck_positive),
            stuck_negative=(other.stuck_negative
                            if other.stuck_negative is not None
                            else self.stuck_negative),
            bias_scale=self.bias_scale * other.bias_scale,
        )


#: Roles a MOS transistor can play inside a differential amplifier stage.
#: Used by :func:`diff_stage_effect` to translate a device defect into a
#: :class:`StageEffect`.
DIFF_STAGE_ROLES = (
    "input_pos",    # input device of the positive half
    "input_neg",    # input device of the negative half
    "load_pos",     # load / mirror device of the positive half
    "load_neg",     # load / mirror device of the negative half
    "tail",         # tail current source
    "bias",         # bias distribution device
)


def _bulk_short_effect(role: str, device: Device, half: Optional[str],
                       vdd: float) -> Optional[StageEffect]:
    """Effect of a short involving the bulk terminal, resolved per role.

    In the stages modelled here the NMOS bulks sit at ground and the PMOS
    bulks at the supply, so most bulk shorts are catastrophic rather than
    benign: a drain-bulk short ties the output node to that rail, a gate-bulk
    short switches the device permanently off, and a source-bulk short on an
    input device grounds the tail node.  Only the source-bulk short of a
    device whose source already sits at its bulk potential is benign.
    """
    pair = device.defect.shorted_terminals
    if pair is None or "b" not in pair:
        return None
    terms = set(pair)
    is_nmos = device.kind is DeviceKind.NMOS
    bulk_rail = VSS if is_nmos else vdd

    if role.startswith("input"):
        if terms == {"d", "b"}:
            stuck = {"stuck_positive": bulk_rail} if half == "pos" else \
                    {"stuck_negative": bulk_rail}
            return StageEffect(gain_scale=0.2, **stuck)
        if terms == {"g", "b"}:
            # Gate tied to the bulk rail: the device is off, its output rails.
            stuck = {"stuck_positive": vdd} if half == "pos" else \
                    {"stuck_negative": vdd}
            return StageEffect(gain_scale=0.0, **stuck)
        if terms == {"s", "b"}:
            # The common source (tail) node is tied to the bulk rail: the tail
            # current source is bypassed and the common mode collapses.
            return StageEffect(gain_scale=0.5, cm_shift=-0.3 * vdd,
                               bias_scale=2.0)
    elif role.startswith("load"):
        if terms == {"d", "b"}:
            stuck = {"stuck_positive": bulk_rail} if half == "pos" else \
                    {"stuck_negative": bulk_rail}
            return StageEffect(gain_scale=0.2, **stuck)
        if terms == {"g", "b"}:
            stuck = {"stuck_positive": VSS} if half == "pos" else \
                    {"stuck_negative": VSS}
            return StageEffect(gain_scale=0.2, **stuck)
        if terms == {"s", "b"}:
            return StageEffect()  # source already at the bulk rail: benign
    elif role in ("tail", "bias"):
        if terms == {"d", "b"}:
            # The tail node is tied to the bulk rail: current runs away.
            return StageEffect(gain_scale=0.5, cm_shift=-0.3 * vdd,
                               bias_scale=2.0)
        if terms == {"g", "b"}:
            return StageEffect(gain_scale=0.0, bias_scale=0.0,
                               stuck_positive=vdd, stuck_negative=vdd)
        if terms == {"s", "b"}:
            return StageEffect()  # benign
    return None


def diff_stage_effect(role: str, device: Device, vdd: float = VDD,
                      severity: float = 1.0) -> StageEffect:
    """Behavioral effect of one defective MOS inside a differential stage.

    ``severity`` scales the magnitude of offset / common-mode shifts and is
    used by blocks to reflect device sizing.
    """
    if role not in DIFF_STAGE_ROLES:
        raise DefectError(f"unknown differential-stage role {role!r}")
    state = mos_state(device)
    if state is MosState.NORMAL:
        return StageEffect()

    half = "pos" if role.endswith("_pos") else "neg" if role.endswith("_neg") else None

    bulk_effect = _bulk_short_effect(role, device, half, vdd)
    if bulk_effect is not None:
        return bulk_effect

    if role == "tail":
        if state is MosState.STUCK_OFF:
            # No bias current: both outputs collapse to the supply through the
            # loads, the stage has no gain.
            return StageEffect(gain_scale=0.0, bias_scale=0.0,
                               stuck_positive=vdd, stuck_negative=vdd)
        if state is MosState.STUCK_ON:
            # Tail behaves like a short: current roughly doubles, the common
            # mode drops and the gain degrades.
            return StageEffect(gain_scale=0.5 * severity if severity < 1 else 0.5,
                               bias_scale=2.0, cm_shift=-0.25 * vdd * severity)
        return StageEffect(gain_scale=0.8, bias_scale=0.8,
                           cm_shift=-0.05 * vdd * severity)

    if role == "bias":
        if state is MosState.STUCK_OFF:
            return StageEffect(gain_scale=0.0, bias_scale=0.0,
                               stuck_positive=vdd, stuck_negative=vdd)
        if state is MosState.STUCK_ON:
            return StageEffect(gain_scale=0.6, bias_scale=1.8,
                               cm_shift=-0.2 * vdd * severity)
        return StageEffect(gain_scale=0.85, bias_scale=0.85)

    if role.startswith("input"):
        if state is MosState.STUCK_OFF:
            # One input device gone: all the tail current flows in the other
            # half, the dead half output goes to the supply.
            stuck = {"stuck_positive": vdd} if half == "pos" else \
                    {"stuck_negative": vdd}
            return StageEffect(gain_scale=0.0, offset=0.3 * severity, **stuck)
        if state is MosState.STUCK_ON:
            sign = 1.0 if half == "pos" else -1.0
            return StageEffect(gain_scale=0.3,
                               offset=sign * 0.2 * severity,
                               cm_shift=-0.1 * vdd * severity)
        sign = 1.0 if half == "pos" else -1.0
        return StageEffect(gain_scale=0.8, offset=sign * 0.02 * severity)

    # load_pos / load_neg
    if state is MosState.STUCK_OFF:
        stuck = {"stuck_positive": VSS} if half == "pos" else \
                {"stuck_negative": VSS}
        return StageEffect(gain_scale=0.2, **stuck)
    if state is MosState.STUCK_ON:
        stuck = {"stuck_positive": vdd} if half == "pos" else \
                {"stuck_negative": vdd}
        return StageEffect(gain_scale=0.2, **stuck)
    sign = 1.0 if half == "pos" else -1.0
    return StageEffect(gain_scale=0.85, offset=sign * 0.015 * severity,
                       cm_shift=0.03 * vdd * severity * sign)


def combine_effects(effects: Iterable[StageEffect]) -> StageEffect:
    """Fold an iterable of :class:`StageEffect` into one."""
    total = StageEffect()
    for effect in effects:
        total = total.combine(effect)
    return total
