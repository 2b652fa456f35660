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
from typing import Dict, List, Optional, Sequence, Tuple

from ..dut import DutSpec, default_dut
from .behavioral import (MosState, PassiveState, combine_effects,
                         diff_stage_effect, mos_state, passive_state,
                         switch_state)
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
        """Amplify the DAC differential voltage into ``LIN+`` / ``LIN-``."""
        return self.sweep(((dac_p, dac_m),), ibias, offset_comp)[0]

    def sweep(self, pairs: "Sequence[Tuple[float, float]]", ibias: float,
              offset_comp: OffsetCompensation) -> "List[PreampOutput]":
        """Amplify many ``(dac_p, dac_m)`` pairs against one defect state.

        Everything except the final differential arithmetic -- the offset
        compensation, the bias point, and the structural stage effects -- is
        a pure function of the netlist state, the block parameters and
        ``ibias``, so it is resolved once for the whole sweep.  This is the
        pre-amplifier hot path of the batched defect evaluator.
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

        swing = self.SWING_LIMIT
        outputs = []
        for dac_p, dac_m in pairs:
            diff_in = dac_p - dac_m + offset
            diff_out = 2.0 * swing * math.tanh(gain * diff_in / (2.0 * swing))

            lin_p = vcm2 + 0.5 * diff_out
            lin_m = vcm2 - 0.5 * diff_out
            if amp.stuck_positive is not None:
                lin_p = amp.stuck_positive
            if amp.stuck_negative is not None:
                lin_m = amp.stuck_negative
            if stuck_side == "p":
                lin_p = 0.2
            elif stuck_side == "n":
                lin_m = 0.2
            lin_p = min(max(lin_p, self.dut.vss), vdd)
            lin_m = min(max(lin_m, self.dut.vss), vdd)
            outputs.append(PreampOutput(lin_p=lin_p, lin_m=lin_m))
        return outputs


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
        """Resolve the pre-amplifier differential into complementary rails."""
        return self.sweep(((lin_p, lin_m),))[0]

    def sweep(self, pairs: Sequence[Tuple[float, float]]) -> List[LatchOutput]:
        """Resolve many ``(lin_p, lin_m)`` pairs against one defect state.

        The clock and cross-coupled device states are a pure function of the
        netlist state and are resolved once for the whole sweep; the per-pair
        arithmetic is unchanged.
        """
        offset = self.parameter("latch_offset")
        clk_state = mos_state(self.netlist.device("mn_clk"))
        nmos_states = [(mos_state(self.netlist.device(name)), target)
                       for name, target in (("mn_cross_p", "p"),
                                            ("mn_cross_n", "n"))]
        pmos_states = [(mos_state(self.netlist.device(name)), target)
                       for name, target in (("mp_cross_p", "p"),
                                            ("mp_cross_n", "n"))]
        vdd, vss = self.dut.vdd, self.dut.vss
        outputs = []
        for lin_p, lin_m in pairs:
            decision_high = (lin_p - lin_m) > offset
            q_p = vdd if decision_high else vss
            q_m = vss if decision_high else vdd

            if clk_state is MosState.STUCK_OFF:
                # The latch never evaluates: both outputs stay precharged high.
                outputs.append(LatchOutput(q_p=vdd, q_m=vdd))
                continue
            if clk_state is MosState.STUCK_ON:
                # The latch is always evaluating; behaviourally it still
                # resolves but with degraded levels.
                q_p, q_m = q_p * 0.9, q_m * 0.9

            # Cross-coupled devices: losing one of the four regeneration
            # devices leaves the affected output fighting its precharge, so
            # it settles at a defect-dependent intermediate level instead of
            # a clean rail.
            for state, target in nmos_states:
                if state is MosState.STUCK_ON:
                    if target == "p":
                        q_p = vss
                    else:
                        q_m = vss
                elif state is MosState.STUCK_OFF:
                    if target == "p":
                        q_p = max(q_p, 0.7 * vdd)
                    else:
                        q_m = max(q_m, 0.7 * vdd)
                elif state is MosState.DEGRADED:
                    # Weakened pull-down: the high level is unaffected but a
                    # low output cannot be fully discharged.
                    if target == "p":
                        q_p = max(q_p, 0.45 * vdd)
                    else:
                        q_m = max(q_m, 0.45 * vdd)
            for state, target in pmos_states:
                if state is MosState.STUCK_ON:
                    if target == "p":
                        q_p = vdd
                    else:
                        q_m = vdd
                elif state is MosState.STUCK_OFF:
                    if target == "p":
                        q_p = min(q_p, 0.3 * vdd)
                    else:
                        q_m = min(q_m, 0.3 * vdd)
                elif state is MosState.DEGRADED:
                    # Weakened pull-up: the high level droops.
                    if target == "p":
                        q_p = min(q_p, 0.62 * vdd)
                    else:
                        q_m = min(q_m, 0.62 * vdd)
            outputs.append(LatchOutput(q_p=min(max(q_p, vss), vdd),
                                       q_m=min(max(q_m, vss), vdd)))
        return outputs


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
        self._state, output = self._step(latch, self._state,
                                         self.resolve_defect_actions())
        return output

    def replay(self, latches: Sequence[LatchOutput]) -> List[LatchOutput]:
        """Reset, then evaluate every input in order.

        Bit-identical to :meth:`reset_state` followed by :meth:`evaluate`
        per input: the defect actions are a pure function of the netlist
        state and are resolved once for the whole replay.  This is the
        RS-latch hot path of the batched defect evaluator.
        """
        self.reset_state()
        actions = self.resolve_defect_actions()
        outputs = []
        for latch in latches:
            self._state, output = self._step(latch, self._state, actions)
            outputs.append(output)
        return outputs

    def step_each(self, latches: Sequence[LatchOutput], states: List[int],
                  actions: list) -> List[LatchOutput]:
        """Evaluate ``latches[i]`` against its own stored state ``states[i]``.

        Used to step many independent conversions in lockstep: ``states``
        holds one stored decision per conversion and is updated in place,
        and ``actions`` come from one :meth:`resolve_defect_actions` call.
        Afterwards the latch holds the last conversion's state, as
        evaluating the conversions one after another would leave it.
        """
        outputs = []
        for index, latch in enumerate(latches):
            states[index], output = self._step(latch, states[index], actions)
            outputs.append(output)
        if states:
            self._state = states[-1]
        return outputs

    def _step(self, latch: LatchOutput, state: int,
              actions: list) -> Tuple[int, LatchOutput]:
        """One evaluation from stored ``state``: ``(next_state, output)``."""
        set_high = latch.q_p > self._threshold
        reset_high = latch.q_m > self._threshold
        if set_high and not reset_high:
            state = 1
        elif reset_high and not set_high:
            state = 0
        elif set_high and reset_high:
            # Invalid input (both comparator outputs high): both RS outputs
            # are driven high, which the complementary-output invariance sees.
            return state, self._apply_actions(self.dut.vdd, self.dut.vdd,
                                              actions)
        # else: hold the previous state.
        q_p = self.dut.vdd if state else self.dut.vss
        q_m = self.dut.vss if state else self.dut.vdd
        # A weak (mid-rail) comparator-latch level does not switch the RS gate
        # cleanly; the corresponding output degrades instead of regenerating,
        # which keeps such upstream defects observable at the checker.
        if self._weak_low < latch.q_p < self._weak_high:
            q_p = latch.q_p
        if self._weak_low < latch.q_m < self._weak_high:
            q_m = latch.q_m
        return state, self._apply_actions(q_p, q_m, actions)

    def resolve_defect_actions(self) -> list:
        """Input-independent ``(target, value)`` overrides of the NAND devices.

        ``value is None`` marks the one input-dependent case: a stuck-off
        pull-up leaves its output at a level derived from the opposite
        output, so it is resolved per evaluation in
        :meth:`_apply_actions`.
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

    def _apply_actions(self, q_p: float, q_m: float,
                       actions: list) -> LatchOutput:
        vdd, vss = self.dut.vdd, self.dut.vss
        for target, value in actions:
            if value is None:
                value = q_p * 0.5 + 0.25 * vdd
            if target == "p":
                q_p = value
            else:
                q_m = value
        return LatchOutput(q_p=min(max(q_p, vss), vdd),
                           q_m=min(max(q_m, vss), vdd))


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
