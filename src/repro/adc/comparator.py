"""Comparator chain: pre-amplifier, comparator latch, RS latch, offset compensation.

Paper context (Section III): "Comparator: It compares the two outputs of the
DAC and the outcome of the comparison is driven to the SAR Logic block in
order to set the corresponding digital bit.  It comprises a pre-amplifier, a
comparator latch, an RS latch, and an offset compensation circuit for the
pre-amplifier."  Table I of the paper reports defect coverage for each of the
four pieces separately, so each is modelled as its own block here.

SymBIST observes the chain through three invariances (Eqs. (4)-(5)):

* ``LIN+ + LIN- = 2*Vcm2`` -- the pre-amplifier is fully differential, so its
  output common mode is constant;
* ``sgn(Q+ - Q-) = sgn(LIN+ - LIN-)`` -- the latched decision must agree with
  the pre-amplifier polarity;
* ``Q+ + Q- = VDD`` -- the latch outputs are complementary.

The pre-amplifier output saturation is modelled with an odd (tanh) limiter, so
the common-mode invariance holds by construction even when the outputs clip,
exactly like a well-designed fully-differential stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..dut import DutSpec, default_dut
from .behavioral import (MosState, PassiveState, clamp_column,
                         combine_effects, diff_stage_effect, mos_state,
                         passive_state, switch_state, tanh_column)
from .block import AnalogBlock


@dataclass
class PreampOutput:
    """Fully-differential pre-amplifier outputs (``LIN+`` / ``LIN-``)."""

    lin_p: float
    lin_m: float

    @property
    def differential(self) -> float:
        return self.lin_p - self.lin_m

    @property
    def common_mode(self) -> float:
        return 0.5 * (self.lin_p + self.lin_m)


class OffsetCompensation(AnalogBlock):
    """Auto-zero network that cancels most of the pre-amplifier offset.

    Structure: two storage capacitors and two sampling switches.  The benign
    defects (capacitor opens and value deviations, stuck-open switches) merely
    disable the compensation and leave a small residual offset -- which no
    SymBIST invariance observes, because a pure differential offset does not
    move the output common mode nor break the decision/polarity consistency.
    Only the catastrophic defects (a shorted storage capacitor pinning one
    pre-amplifier output, a stuck-on switch leaking charge into the signal
    path) are observable.  This is the behaviour behind the very low
    likelihood-weighted coverage of the block in Table I of the paper.
    """

    block_path = "offset_compensation"

    #: Fraction of the raw pre-amplifier offset cancelled by the network.
    COMPENSATION_FACTOR = 0.95

    def __init__(self, name: str = "offset_compensation",
                 dut: Optional[DutSpec] = None) -> None:
        super().__init__(name)
        self.dut = dut or default_dut()
        nl = self.netlist
        nl.add_capacitor("c_az_p", p="az_p", n="preamp_out_p", value=1e-12)
        nl.add_capacitor("c_az_n", p="az_n", n="preamp_out_n", value=1e-12)
        nl.add_switch("sw_az_p", p="az_p", n="vcm2", ctrl="phi_az", ron=1e3)
        nl.add_switch("sw_az_n", p="az_n", n="vcm2", ctrl="phi_az", ron=1e3)
        self.declare_parameter("residual_offset", 0.0, sigma=0.2e-3)

    def evaluate(self) -> Tuple[float, float, Optional[str]]:
        """Return ``(compensation_factor, extra_offset, stuck_output)``.

        ``stuck_output`` identifies a pre-amplifier output pinned by a shorted
        auto-zero capacitor (``"p"`` or ``"n"``), or ``None``.
        """
        factor = self.COMPENSATION_FACTOR
        extra_offset = self.parameter("residual_offset")
        stuck: Optional[str] = None

        for side in ("p", "n"):
            cap = self.netlist.device(f"c_az_{side}")
            state, _ = passive_state(cap)
            if state is PassiveState.SHORTED:
                stuck = side
            elif state is PassiveState.OPEN:
                factor = 0.0
            elif cap.defect.value_scale != 1.0:
                factor = min(factor, 0.90)

            sw = self.netlist.device(f"sw_az_{side}")
            closed_during_az = switch_state(sw, nominal_on=True)
            closed_during_compare = switch_state(sw, nominal_on=False)
            if not closed_during_az:
                factor = 0.0
            if closed_during_compare:
                # The auto-zero switch leaks during the comparison and injects
                # charge into one side of the signal path.
                sign = 1.0 if side == "p" else -1.0
                extra_offset += sign * 0.08
        return factor, extra_offset, stuck


class Preamplifier(AnalogBlock):
    """Fully-differential pre-amplifier in front of the comparator latch."""

    block_path = "preamplifier"

    #: Nominal differential gain.
    GAIN_NOMINAL = 12.0
    #: Maximum single-ended output excursion around the common mode.
    SWING_LIMIT = 0.45

    def __init__(self, name: str = "preamplifier",
                 dut: Optional[DutSpec] = None) -> None:
        super().__init__(name)
        self.dut = dut or default_dut()
        nl = self.netlist
        # Matched input pair and tail source: large-area analog devices.
        nl.add_nmos("mn_in_p", d="out_n", g="dac_p", s="tail", w=12e-6,
                    l=0.25e-6)
        nl.add_nmos("mn_in_n", d="out_p", g="dac_m", s="tail", w=12e-6,
                    l=0.25e-6)
        nl.add_nmos("mn_tail", d="tail", g="nbias", s="vss", w=16e-6,
                    l=0.25e-6)
        nl.add_resistor("r_load_p", p="vdd", n="out_p", value=30e3)
        nl.add_resistor("r_load_n", p="vdd", n="out_n", value=30e3)

        self.declare_parameter("raw_offset", 0.0, sigma=4e-3)
        self.declare_parameter("vcm2", self.dut.vcm2, sigma=2e-3)
        self.declare_parameter("gain", self.GAIN_NOMINAL, sigma=0.4)

    # ------------------------------------------------------------------ model
    def evaluate(self, dac_p: float, dac_m: float, ibias: float,
                 offset_comp: OffsetCompensation) -> PreampOutput:
        """Amplify the DAC differential voltage into ``LIN+`` / ``LIN-``:
        :meth:`columns` of one pair."""
        lin_p, lin_m = self.columns(self.resolve(ibias, offset_comp),
                                    np.array([dac_p], dtype=float),
                                    np.array([dac_m], dtype=float))
        return PreampOutput(lin_p=lin_p.item(), lin_m=lin_m.item())

    def resolve(self, ibias: float, offset_comp: OffsetCompensation
                ) -> Tuple[float, float, float, Optional[float],
                           Optional[float]]:
        """Input-independent state of the stage, the argument of
        :meth:`columns`: ``(offset, vcm2, gain, stuck_p, stuck_n)``.

        The offset compensation, the bias point and the structural stage
        effects are a pure function of the netlist state, the block
        parameters and ``ibias``.  ``stuck_p`` / ``stuck_n`` is the level an
        output is pinned at, or ``None``.
        """
        comp_factor, extra_offset, stuck_side = offset_comp.evaluate()
        offset = self.parameter("raw_offset") * (1.0 - comp_factor) \
            + extra_offset

        # Bias-current dependence: the output common mode sits at
        # VDD - I*R/2 per side; losing the bias pushes both outputs to VDD.
        vdd = self.dut.vdd
        bias_ratio = max(ibias, 0.0) / self.dut.ibias
        vcm2 = vdd - bias_ratio * (vdd - self.parameter("vcm2"))
        gain = self.parameter("gain") * math.sqrt(max(bias_ratio, 0.0))

        # Structural defects of the stage.
        roles = {"mn_in_p": "input_pos", "mn_in_n": "input_neg",
                 "mn_tail": "tail"}
        effects = []
        for dev_name, role in roles.items():
            dev = self.netlist.device(dev_name)
            if dev.has_defect:
                effects.append(diff_stage_effect(role, dev, vdd=vdd,
                                                 severity=1.0))
        # Resistive loads: a short pins that output to VDD, an open lets the
        # input device pull it to ground, value deviations shift the CM and
        # create offset.
        load_effects = []
        for side in ("p", "n"):
            dev = self.netlist.device(f"r_load_{side}")
            if not dev.has_defect:
                continue
            state, value = passive_state(dev)
            key = "stuck_positive" if side == "p" else "stuck_negative"
            if state is PassiveState.SHORTED:
                load_effects.append(_stage_stuck(key, vdd))
            elif state is PassiveState.OPEN:
                load_effects.append(_stage_stuck(key, self.dut.vss))
            else:
                # The voltage drop across that load changes, which moves the
                # stage common mode and creates a differential imbalance.
                scale = dev.defect.value_scale
                sign = 1.0 if side == "p" else -1.0
                shift = (1.0 - scale) * (vdd - vcm2) * 0.5
                load_effects.append(_stage_shift(cm_shift=shift,
                                                 offset=sign * shift * 0.2))
        amp = combine_effects(effects + load_effects)

        gain *= max(amp.gain_scale, 0.0)
        vcm2 += amp.cm_shift
        offset += amp.offset
        # A shorted auto-zero capacitor pins its output after the stage.
        stuck_p = 0.2 if stuck_side == "p" else amp.stuck_positive
        stuck_n = 0.2 if stuck_side == "n" else amp.stuck_negative
        return offset, vcm2, gain, stuck_p, stuck_n

    def columns(self, resolved: tuple, dac_p: np.ndarray,
                dac_m: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``LIN+`` / ``LIN-`` columns of many ``DAC+/-`` pairs against one
        state from :meth:`resolve`: the stage's only per-pair arithmetic."""
        offset, vcm2, gain, stuck_p, stuck_n = resolved
        swing = self.SWING_LIMIT
        diff_in = dac_p - dac_m + offset
        diff_out = 2.0 * swing * tanh_column(gain * diff_in / (2.0 * swing))
        lin_p = vcm2 + 0.5 * diff_out
        lin_m = vcm2 - 0.5 * diff_out
        if stuck_p is not None:
            lin_p = np.full(lin_p.shape, stuck_p)
        if stuck_n is not None:
            lin_m = np.full(lin_m.shape, stuck_n)
        return (clamp_column(lin_p, self.dut.vss, self.dut.vdd),
                clamp_column(lin_m, self.dut.vss, self.dut.vdd))


def _stage_stuck(key: str, value: float):
    """Build a StageEffect with one stuck output (helper for load defects)."""
    from .behavioral import StageEffect

    return StageEffect(**{key: value, "gain_scale": 0.3})


def _stage_shift(cm_shift: float, offset: float):
    from .behavioral import StageEffect

    return StageEffect(cm_shift=cm_shift, offset=offset, gain_scale=0.95)


@dataclass
class LatchOutput:
    """Complementary latch outputs."""

    q_p: float
    q_m: float

    @property
    def decision(self) -> int:
        """The logical decision: 1 when the positive output is high."""
        return 1 if self.q_p > self.q_m else 0


class ComparatorLatch(AnalogBlock):
    """Clocked regenerative latch converting ``LIN+/-`` into logic levels."""

    block_path = "comparator_latch"

    def __init__(self, name: str = "comparator_latch",
                 dut: Optional[DutSpec] = None) -> None:
        super().__init__(name)
        self.dut = dut or default_dut()
        nl = self.netlist
        nl.add_nmos("mn_cross_p", d="ql_p", g="ql_n", s="latch_tail", w=3e-6)
        nl.add_nmos("mn_cross_n", d="ql_n", g="ql_p", s="latch_tail", w=3e-6)
        nl.add_pmos("mp_cross_p", d="ql_p", g="ql_n", s="vdd", w=6e-6)
        nl.add_pmos("mp_cross_n", d="ql_n", g="ql_p", s="vdd", w=6e-6)
        nl.add_nmos("mn_clk", d="latch_tail", g="clk", s="vss", w=4e-6)

        self.declare_parameter("latch_offset", 0.0, sigma=1.5e-3)

    def evaluate(self, lin_p: float, lin_m: float) -> LatchOutput:
        """Resolve the pre-amplifier differential into complementary rails:
        :meth:`columns` of one pair."""
        q_p, q_m = self.columns(self.resolve(),
                                np.array([lin_p], dtype=float),
                                np.array([lin_m], dtype=float))
        return LatchOutput(q_p=q_p.item(), q_m=q_m.item())

    def resolve(self) -> tuple:
        """Input-independent state of the latch, the argument of
        :meth:`columns`: ``(offset, clk_state, nmos_states, pmos_states)``
        with ``(MosState, output)`` pairs for the cross-coupled devices."""
        nl = self.netlist
        return (self.parameter("latch_offset"),
                mos_state(nl.device("mn_clk")),
                [(mos_state(nl.device(name)), target)
                 for name, target in (("mn_cross_p", "p"),
                                      ("mn_cross_n", "n"))],
                [(mos_state(nl.device(name)), target)
                 for name, target in (("mp_cross_p", "p"),
                                      ("mp_cross_n", "n"))])

    def columns(self, resolved: tuple, lin_p: np.ndarray,
                lin_m: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``QL+`` / ``QL-`` columns of many ``LIN+/-`` pairs against one
        state from :meth:`resolve`: the latch's only per-pair arithmetic.

        Every ``max``/``min`` below is written as the ``np.where`` that makes
        Python's choice (see :func:`~repro.adc.behavioral.clamp_column`).
        """
        offset, clk_state, nmos_states, pmos_states = resolved
        vdd, vss = self.dut.vdd, self.dut.vss
        if clk_state is MosState.STUCK_OFF:
            # The latch never evaluates: both outputs stay precharged high.
            return np.full(lin_p.shape, vdd), np.full(lin_p.shape, vdd)
        decision_high = (lin_p - lin_m) > offset
        q = {"p": np.where(decision_high, vdd, vss),
             "n": np.where(decision_high, vss, vdd)}
        if clk_state is MosState.STUCK_ON:
            # The latch is always evaluating; behaviourally it still
            # resolves but with degraded levels.
            q = {side: column * 0.9 for side, column in q.items()}

        # Cross-coupled devices: losing one of the four regeneration devices
        # leaves the affected output fighting its precharge, so it settles
        # at a defect-dependent intermediate level instead of a clean rail.
        for state, target in nmos_states:
            if state is MosState.STUCK_ON:
                q[target] = np.full(lin_p.shape, vss)
            elif state in (MosState.STUCK_OFF, MosState.DEGRADED):
                # A degraded device is a weakened pull-down: the high level
                # is unaffected but a low output cannot be fully discharged.
                floor = (0.7 if state is MosState.STUCK_OFF else 0.45) * vdd
                q[target] = np.where(floor > q[target], floor, q[target])
        for state, target in pmos_states:
            if state is MosState.STUCK_ON:
                q[target] = np.full(lin_p.shape, vdd)
            elif state in (MosState.STUCK_OFF, MosState.DEGRADED):
                # A degraded device is a weakened pull-up: the high level
                # droops.
                ceiling = (0.3 if state is MosState.STUCK_OFF else 0.62) * vdd
                q[target] = np.where(ceiling < q[target], ceiling, q[target])
        return (clamp_column(q["p"], vss, vdd), clamp_column(q["n"], vss, vdd))


class RsLatch(AnalogBlock):
    """RS latch that holds the comparator decision for the SAR logic."""

    block_path = "rs_latch"

    def __init__(self, name: str = "rs_latch",
                 dut: Optional[DutSpec] = None) -> None:
        super().__init__(name)
        self.dut = dut or default_dut()
        #: Threshold used to interpret the comparator-latch outputs as
        #: set/reset.
        self._threshold = 0.5 * self.dut.vdd
        #: Band of comparator-latch levels considered "weak" (neither a clean
        #: low nor a clean high); weak levels propagate through the RS gates
        #: instead of being regenerated, like they would through real,
        #: ratioed logic.
        self._weak_low = 0.25 * self.dut.vdd
        self._weak_high = 0.8 * self.dut.vdd
        nl = self.netlist
        # Two cross-coupled NAND gates, two transistors modelled per gate.
        nl.add_pmos("mp_nand_a", d="q_p", g="q_n", s="vdd", w=2e-6)
        nl.add_nmos("mn_nand_a", d="q_p", g="q_n", s="vss", w=1e-6)
        nl.add_pmos("mp_nand_b", d="q_n", g="q_p", s="vdd", w=2e-6)
        nl.add_nmos("mn_nand_b", d="q_n", g="q_p", s="vss", w=1e-6)
        self._state = 0

    def reset_state(self) -> None:
        """Forget the stored decision (used between simulation runs)."""
        self._state = 0

    def evaluate(self, latch: LatchOutput) -> LatchOutput:
        """Latch the comparator decision and drive complementary outputs."""
        _, q_p, q_m = self.step_columns(
            np.array([latch.q_p]), np.array([latch.q_m]),
            np.array([self._state], dtype=np.int64),
            self.resolve_defect_actions())
        return LatchOutput(q_p=q_p.item(), q_m=q_m.item())

    def replay(self, q_p: np.ndarray, q_m: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Reset, then latch every input ``(q_p[i], q_m[i])`` in order;
        return the ``Q+`` / ``Q-`` columns.

        Bit-identical to :meth:`reset_state` followed by :meth:`evaluate`
        per input: the state each input is latched from is the last
        decision set or reset before it (0 from reset), so the whole replay
        is one :meth:`step_columns` call.  This is the RS-latch stage of the
        golden trace.
        """
        self.reset_state()
        set_high, reset_high = self._set_reset(q_p, q_m)
        # Index of the last input up to each position that set or reset the
        # latch (-1: none).
        last = np.maximum.accumulate(
            np.where(set_high != reset_high, np.arange(len(q_p)), -1))
        after = np.where(last >= 0, set_high[last], self._state)
        prior = np.concatenate(([self._state], after))[:len(q_p)]
        _, out_p, out_m = self.step_columns(q_p, q_m, prior,
                                            self.resolve_defect_actions())
        return out_p, out_m

    def _set_reset(self, q_p: np.ndarray, q_m: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """``(set_high, reset_high)`` of each input.  Exactly one high sets
        or resets the latch; neither holds it; both is the invalid input."""
        return q_p > self._threshold, q_m > self._threshold

    def step_columns(self, q_p: np.ndarray, q_m: np.ndarray,
                     states: np.ndarray, actions: list
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One evaluation of each input ``(q_p[i], q_m[i])`` from its own
        stored ``states[i]``: ``(next_states, out_p, out_m)``.  The latch's
        only per-input arithmetic.

        ``states`` is an int64 column of stored decisions and ``actions``
        come from one :meth:`resolve_defect_actions` call.  Afterwards the
        latch holds the last input's next state.
        """
        set_high, reset_high = self._set_reset(q_p, q_m)
        states = np.where(set_high != reset_high, set_high, states)
        vdd, vss = self.dut.vdd, self.dut.vss
        held = states != 0
        out_p = np.where(held, vdd, vss)
        out_m = np.where(held, vss, vdd)
        # A weak (mid-rail) comparator-latch level does not switch the RS gate
        # cleanly; the corresponding output degrades instead of regenerating,
        # which keeps such upstream defects observable at the checker.
        out_p = np.where((self._weak_low < q_p) & (q_p < self._weak_high),
                         q_p, out_p)
        out_m = np.where((self._weak_low < q_m) & (q_m < self._weak_high),
                         q_m, out_m)
        # Invalid input (both comparator outputs high): the state holds and
        # both RS outputs are driven high, which the complementary-output
        # invariance sees.
        invalid = set_high & reset_high
        out_p = np.where(invalid, vdd, out_p)
        out_m = np.where(invalid, vdd, out_m)
        for target, value in actions:
            if value is None:
                value = out_p * 0.5 + 0.25 * vdd
            if target == "p":
                out_p = np.broadcast_to(value, q_p.shape)
            else:
                out_m = np.broadcast_to(value, q_p.shape)
        if len(states):
            self._state = int(states[-1])
        return (states, clamp_column(out_p, vss, vdd),
                clamp_column(out_m, vss, vdd))

    def resolve_defect_actions(self) -> list:
        """Input-independent ``(target, value)`` overrides of the NAND devices.

        ``value is None`` marks the one input-dependent case: a stuck-off
        pull-up leaves its output at a level derived from the positive
        output, so it is resolved per input in :meth:`step_columns`.
        """
        vdd, vss = self.dut.vdd, self.dut.vss
        actions = []
        for name, target, rail in (("mp_nand_a", "p", vdd),
                                   ("mn_nand_a", "p", vss),
                                   ("mp_nand_b", "n", vdd),
                                   ("mn_nand_b", "n", vss)):
            device = self.netlist.device(name)
            state = mos_state(device)
            if state is MosState.NORMAL:
                continue
            pair = device.defect.shorted_terminals
            if state is MosState.DEGRADED:
                if pair is not None and "b" in pair or \
                        device.defect.open_terminal == "b":
                    # Bulk-related degradation: the static levels still reach
                    # the rails; the defect is benign for this latch.
                    continue
                # Gate-drain short: the output is loaded by the opposite
                # output through the shorted gate and settles at a weak level.
                actions.append((target, 0.7 * vdd))
            elif state is MosState.STUCK_ON:
                actions.append((target, rail))
            else:  # STUCK_OFF: the output loses one of its drivers
                actions.append((target,
                                vdd - rail if rail == vss else None))
        return actions


@dataclass
class ComparatorOutput:
    """All comparator-chain signals observed by SymBIST."""

    lin_p: float
    lin_m: float
    ql_p: float
    ql_m: float
    q_p: float
    q_m: float

    @property
    def decision(self) -> int:
        return 1 if self.q_p > self.q_m else 0

    def as_signals(self) -> Dict[str, float]:
        return {"LIN+": self.lin_p, "LIN-": self.lin_m,
                "QL+": self.ql_p, "QL-": self.ql_m,
                "Q+": self.q_p, "Q-": self.q_m}


class Comparator:
    """The full comparator chain of the SARCELL."""

    def __init__(self, dut: Optional[DutSpec] = None) -> None:
        self.dut = dut or default_dut()
        self.preamplifier = Preamplifier(dut=self.dut)
        self.latch = ComparatorLatch(dut=self.dut)
        self.rs_latch = RsLatch(dut=self.dut)
        self.offset_compensation = OffsetCompensation(dut=self.dut)

    @property
    def blocks(self):
        """The analog sub-blocks, in Table I order."""
        return (self.preamplifier, self.latch, self.rs_latch,
                self.offset_compensation)

    def clear_defects(self) -> None:
        for block in self.blocks:
            block.clear_defects()

    def evaluate(self, dac_p: float, dac_m: float,
                 ibias: float) -> ComparatorOutput:
        """Run one comparison through the chain."""
        pre = self.preamplifier.evaluate(dac_p, dac_m, ibias,
                                         self.offset_compensation)
        latched = self.latch.evaluate(pre.lin_p, pre.lin_m)
        stored = self.rs_latch.evaluate(latched)
        return ComparatorOutput(lin_p=pre.lin_p, lin_m=pre.lin_m,
                                ql_p=latched.q_p, ql_m=latched.q_m,
                                q_p=stored.q_p, q_m=stored.q_m)
