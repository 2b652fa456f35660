"""Reference buffer -- generates the comparison levels ``VREF<0:32>``.

Paper context (Section III): "Reference Buffer: It creates the comparison
levels VREF<0:32> used during the conversion."  The block is modelled as a
unity-gain buffer driving a 32-segment resistor ladder whose 33 taps are the
``VREF[j]`` levels used by the two sub-DACs (Eq. (1) of the paper) and by the
switched-capacitor array.

Defect behaviour worth noting (it is what produces the strikingly low L-W
coverage of this block in Table I of the paper): defects in the *buffer*
scale or rail the whole ladder uniformly, and because the SymBIST invariances
``M+ + M- = VREF[32]`` and ``L+ + L- = VREF[32]`` are *ratiometric* (they
compare sums of taps against another tap of the same ladder), a uniform scale
is not observable.  Only defects that break the ladder symmetry -- individual
segment shorts, opens and value deviations -- move the invariant signals.  The
buffer devices are physically large (low output impedance), so they carry a
high defect likelihood, and the likelihood-weighted coverage of the block ends
up very low even though many ladder defects are detected.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..circuit.solver import _MAX_CONDUCTANCE, _MIN_CONDUCTANCE
from ..dut import DutSpec, default_dut
from .behavioral import (PassiveState, combine_effects, diff_stage_effect,
                         passive_state)
from .block import AnalogBlock

#: Conductance of the weak pull that discharges the top of the ladder when
#: the buffer's output resistor is open (a 10 MOhm resistor to tap 0).
_OPEN_PULL = 1.0 / 1e7


class ReferenceBuffer(AnalogBlock):
    """Behavioral reference buffer + 33-tap reference ladder."""

    block_path = "reference_buffer"

    def __init__(self, name: str = "reference_buffer",
                 dut: Optional[DutSpec] = None) -> None:
        super().__init__(name)
        self.dut = dut or default_dut()
        #: Ladder taps of this instance (``VREF<0:2**half_bits>``).
        self.n_levels = self.dut.n_ref_levels
        nl = self.netlist
        # Unity-gain buffer between the bandgap output and the ladder top.
        # The devices are sized large (wide W) which gives them a large area
        # proxy and hence a high defect likelihood.
        nl.add_nmos("mn_in_p", d="ba", g="vbg", s="btail", w=4e-6)
        nl.add_nmos("mn_in_n", d="bb", g="vref_top", s="btail", w=4e-6)
        nl.add_nmos("mn_tail", d="btail", g="nbias", s="vss", w=5e-6)
        nl.add_pmos("mp_load_p", d="ba", g="ba", s="vdd", w=6e-6)
        nl.add_pmos("mp_load_n", d="bb", g="ba", s="vdd", w=6e-6)
        nl.add_pmos("mp_out", d="vref_top", g="bb", s="vdd", w=8e-6)
        # Compensation / decoupling around the buffer output.
        nl.add_capacitor("c_comp", p="vref_top", n="vss", value=5e-12)
        nl.add_resistor("r_fb", p="vref_top", n="bb", value=10e3)
        top = self.n_levels - 1
        nl.add_resistor("r_out", p="vref_top", n=f"tap_{top}", value=20.0)
        # The reference ladder: tap_0 (bottom, VSS) ... tap_<top> (top).
        for seg in range(top):
            nl.add_resistor(f"rlad_{seg:02d}", p=f"tap_{seg + 1}",
                            n=f"tap_{seg}", value=self.dut.r_ladder)
        #: The ladder segments, bottom up.
        self._ladder = [nl.device(f"rlad_{seg:02d}") for seg in range(top)]
        #: Flat positions in the ``top x top`` nodal matrix of the
        #: :meth:`evaluate` stamp: the diagonal of taps ``1 .. top - 1``,
        #: the segments between them below and above it, then the segment
        #: to the top tap (row and column 0) and the top tap's diagonal.
        taps = np.arange(1, top)
        self._stamp_index = np.concatenate((
            taps * top + taps, taps[1:] * top + taps[:-1],
            taps[:-1] * top + taps[1:], (top - 1, (top - 1) * top, 0)))

        self.declare_parameter("buffer_gain", 1.0, sigma=0.001)
        self.declare_parameter("buffer_offset", 0.0, sigma=1e-3)

    # ------------------------------------------------------------------ model
    def _buffer_output(self, vbg: float) -> float:
        """Voltage driven onto the top of the ladder by the buffer."""
        roles = {
            "mn_in_p": "input_pos", "mn_in_n": "input_neg", "mn_tail": "tail",
            "mp_load_p": "load_pos", "mp_load_n": "load_neg", "mp_out": "bias",
        }
        effects = []
        for dev_name, role in roles.items():
            dev = self.netlist.device(dev_name)
            if dev.has_defect:
                effects.append(diff_stage_effect(role, dev,
                                                 vdd=self.dut.vdd,
                                                 severity=0.8))
        amp = combine_effects(effects)

        v_top = vbg * self.parameter("buffer_gain") + \
            self.parameter("buffer_offset")
        if amp.stuck_positive is not None:
            v_top = amp.stuck_positive
        elif amp.stuck_negative is not None:
            v_top = amp.stuck_negative
        else:
            v_top = v_top * max(amp.gain_scale, 0.0) ** 0.2 \
                + amp.offset * 0.5 + amp.cm_shift

        # Feedback resistor open breaks the loop -> output runs to the supply.
        fb_state, _ = passive_state(self.netlist.device("r_fb"))
        if fb_state is PassiveState.OPEN:
            v_top = self.dut.vdd
        # Decoupling capacitor shorted pulls the reference to ground.
        comp_state, _ = passive_state(self.netlist.device("c_comp"))
        if comp_state is PassiveState.SHORTED:
            v_top = self.dut.vss
        return min(max(v_top, self.dut.vss), self.dut.vdd)

    def evaluate(self, vbg: float) -> List[float]:
        """Return the 33 reference levels ``VREF[0] .. VREF[32]``.

        The ladder is solved by nodal analysis so that segment defects (10 ohm
        shorts, opens with weak pulls, +-50 % deviations) redistribute the tap
        voltages physically.  The nodal matrix is stamped from one
        conductance vector, bit-identical to the element-by-element stamp of
        :class:`~repro.circuit.solver.LinearNetwork`: the unknowns are the top
        tap, then taps ``1 .. top - 1``; every sum adds its edges in the
        network's order (the output resistor, the weak pull of an open one,
        then the segments bottom up); a conductance is capped at the short
        conductance and dropped below the open floor.
        """
        v_top = float(self._buffer_output(vbg))
        vss = float(self.dut.vss)
        top = self.n_levels - 1
        rout_state, rout_value = passive_state(self.netlist.device("r_out"))
        g = _conductances([rout_value] + [passive_state(device)[1]
                                          for device in self._ladder])
        # Row 0 is the top tap, row j (1 <= j < top) tap j; segment j joins
        # taps j and j + 1, and its conductance is g[j + 1] (g[0] is the
        # output resistor's).  The buffer drives the top tap through its
        # (possibly defective) output resistance; an open one leaves a weak
        # pull to tap 0.
        g_out, g_first, g_last = g[0], g[1], g[top]
        diag_top = 0.0 + g_out
        rhs = np.zeros(top)
        rhs[0] += g_out * v_top
        if rout_state is PassiveState.OPEN:
            diag_top += _OPEN_PULL
            rhs[0] += _OPEN_PULL * vss
        rhs[1] += g_first * vss
        off = 0.0 - g[2:top]
        g_matrix = np.zeros(top * top)
        g_matrix[self._stamp_index] = np.concatenate((
            g[1:top] + g[2:], off, off,
            (0.0 - g_last, 0.0 - g_last, diag_top + g_last)))
        g_matrix.shape = (top, top)
        try:
            solution = np.linalg.solve(g_matrix, rhs).tolist()
        except np.linalg.LinAlgError:
            # A pathological defect combination left a tap floating; report
            # every tap at ground, which any downstream invariance will see.
            return [self.dut.vss] * self.n_levels
        return [vss] + solution[1:] + solution[:1]

    # -------------------------------------------------------------- observers
    def observables(self, vbg: float) -> Dict[str, float]:
        vref = self.evaluate(vbg)
        # The keys are the paper's signal labels for the bottom / mid-scale /
        # full-scale taps; on a non-10-bit variant they still name those
        # three taps (not literal indexes).
        return {"VREF0": vref[0], "VREF16": vref[self.dut.mid_tap],
                "VREF32": vref[-1]}


def _conductances(resistances: Sequence[float]) -> np.ndarray:
    """Conductances of resistors, as
    :meth:`~repro.circuit.solver.LinearNetwork.add_resistor` stamps them: a
    (near-)zero resistance is the short conductance, a conductance below the
    open floor is no edge (``0.0``, which adds nothing to a sum that starts
    at zero), and every conductance is capped at the short one (Python
    ``min``'s choice, as :func:`~repro.adc.behavioral.clamp_column`)."""
    r = np.array(resistances, dtype=float)
    g = np.divide(1.0, r, out=np.full(r.shape, _MAX_CONDUCTANCE),
                  where=~(r <= 1.0 / _MAX_CONDUCTANCE))
    g = np.where(g < _MIN_CONDUCTANCE, 0.0, g)
    return np.where(_MAX_CONDUCTANCE < g, _MAX_CONDUCTANCE, g)
