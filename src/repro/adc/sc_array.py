"""Switched-capacitor (SC) array of the 10-bit DAC.

Paper context (Section III, Fig. 4): the sample-and-hold operation that keeps
the input constant during the conversion is performed within the SC array, and
the array combines the sampled input with the sub-DAC levels ``M+/M-`` and
``L+/L-`` to produce the differential comparison voltages ``DAC+`` / ``DAC-``
at the comparator input.  The SC array has symmetrical positive/negative
paths, which is what makes the invariance of Eq. (3),
``DAC+ + DAC- = 2*Vcm``, hold by construction.

Model: classic top-plate charge redistribution.  Per side the top plate is
reset to ``Vcm`` during sampling while the bottom plates of the sampling
capacitor ``Cs``, the MSB capacitor ``Cm`` and the LSB capacitor ``Cl`` sit at
the input, ``VREF[16]`` and ``VREF[16]`` respectively; during conversion the
bottom plates switch to ``Vcm``, ``M+/-`` and ``L+/-``.  Charge conservation
gives::

    DAC+/- = Vcm + [Cs*(Vcm - IN+/-) + Cm*(M+/- - VREF16) + Cl*(L+/- - VREF16)]
             / (Cs + Cm + Cl)

With matched capacitors, a fully-differential input (common mode = Vcm) and a
linear reference ladder, the sum of the two sides equals ``2*Vcm`` for every
code -- the Eq. (3) invariance.  Capacitor and switch defects break the
cancellation on one side only and shift the sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..dut import DutSpec, default_dut
from .behavioral import clamp_column, effective_capacitance, switch_state
from .block import AnalogBlock

#: Residual coupling of the ideal DAC voltage through a permanently-on reset
#: switch (the switch loads the top plate towards Vcm but does not pin it).
_RESET_STUCK_ON_COUPLING = 0.3
#: Top-plate voltage left after a failed (stuck-off) reset: the node keeps the
#: discharged level from power-up instead of Vcm.
_UNRESET_TOP_PLATE = 0.0


@dataclass
class ScArrayInputs:
    """Signals feeding the SC array for one conversion cycle."""

    in_p: float
    in_m: float
    m_p: float
    m_m: float
    l_p: float
    l_m: float
    vcm: float
    vref_mid: float


@dataclass
class ScArrayOutput:
    """Differential comparison voltages at the comparator input."""

    dac_p: float
    dac_m: float


class ScArray(AnalogBlock):
    """Behavioral switched-capacitor array with a structural defect surface."""

    block_path = "sc_array"

    def __init__(self, name: str = "sc_array",
                 dut: Optional[DutSpec] = None) -> None:
        super().__init__(name)
        self.dut = dut or default_dut()
        # Capacitor weights follow the sub-DAC structure: the MSB capacitor
        # spans the counter codes (2**h units), the sampling capacitor one
        # unit more, the LSB capacitor one unit (33 / 32 / 1 for the paper's
        # 10-bit device).
        cs_units = float(self.dut.n_ref_levels)
        cm_units = float(self.dut.counter_codes)
        cl_units = 1.0
        c_unit = self.dut.c_unit
        nl = self.netlist
        for side in ("p", "n"):
            nl.add_capacitor(f"cs_{side}", p=f"top_{side}", n=f"bs_{side}",
                             value=cs_units * c_unit)
            nl.add_capacitor(f"cm_{side}", p=f"top_{side}", n=f"bm_{side}",
                             value=cm_units * c_unit)
            nl.add_capacitor(f"cl_{side}", p=f"top_{side}", n=f"bl_{side}",
                             value=cl_units * c_unit)
            nl.add_switch(f"sw_rst_{side}", p=f"top_{side}", n="vcm",
                          ctrl="phi_sample", ron=500.0)
            nl.add_switch(f"sw_in_{side}", p=f"bs_{side}", n=f"in_{side}",
                          ctrl="phi_sample", ron=300.0)

        self.declare_parameter("mismatch_p", 0.0, sigma=2e-4)
        self.declare_parameter("mismatch_n", 0.0, sigma=2e-4)

    # ------------------------------------------------------------------ model
    def _side_state(self, side: str) -> tuple:
        """Input-independent device state of one side, resolved once.

        Returns ``(short, cs, cm, cl, reset_closed_sampling,
        input_closed_sampling, reset_closed_conversion,
        input_closed_conversion)``.  ``short`` names the bottom-plate driver
        a shorted capacitor ties the top plate to (``"m"``, ``"l"`` or
        ``"vcm"``, in that precedence) or is ``None``.
        """
        cs, cs_short = effective_capacitance(self.netlist.device(f"cs_{side}"))
        cm, cm_short = effective_capacitance(self.netlist.device(f"cm_{side}"))
        cl, cl_short = effective_capacitance(self.netlist.device(f"cl_{side}"))
        short = "m" if cm_short else "l" if cl_short else \
            "vcm" if cs_short else None

        reset_sw = self.netlist.device(f"sw_rst_{side}")
        input_sw = self.netlist.device(f"sw_in_{side}")
        # Sampling-phase behaviour of the switches, then conversion-phase
        # behaviour (both switches nominally open).
        return (short, cs, cm, cl,
                switch_state(reset_sw, nominal_on=True),
                switch_state(input_sw, nominal_on=True),
                switch_state(reset_sw, nominal_on=False),
                switch_state(input_sw, nominal_on=False))

    def resolve(self) -> tuple:
        """Input-independent state of the array: ``(state_p, state_n,
        mismatch_p, mismatch_n)``, the argument of :meth:`columns`."""
        return (self._side_state("p"), self._side_state("n"),
                self.parameter("mismatch_p"), self.parameter("mismatch_n"))

    def columns(self, resolved: tuple, in_p: np.ndarray, in_m: np.ndarray,
                m_p: np.ndarray, m_m: np.ndarray, l_p: np.ndarray,
                l_m: np.ndarray, vcm, vref_mid
                ) -> Tuple[np.ndarray, np.ndarray]:
        """``DAC+`` / ``DAC-`` columns of many cycles against one
        state from :meth:`resolve`: the array's only per-cycle arithmetic.

        Every signal is a float64 column (``vcm`` and ``vref_mid`` may be
        scalars); see :func:`~repro.adc.behavioral.clamp_column` for why
        the result is bit-identical to the scalar charge model.
        """
        state_p, state_n, mismatch_p, mismatch_n = resolved
        return (self._side_column(state_p, in_p, m_p, l_p, vcm, vref_mid,
                                  mismatch_p),
                self._side_column(state_n, in_m, m_m, l_m, vcm, vref_mid,
                                  mismatch_n))

    def _side_column(self, state: tuple, vin: np.ndarray,
                     m_level: np.ndarray, l_level: np.ndarray, vcm,
                     vref_mid, mismatch: float) -> np.ndarray:
        """Top-plate voltage column of one side after charge redistribution."""
        (short, cs, cm, cl, reset_closed_sampling, input_closed_sampling,
         reset_closed_conversion, input_closed_conversion) = state
        shape = np.shape(vin)

        # A shorted capacitor ties the top plate to its bottom-plate driver.
        if short == "m":
            return self._clamp(m_level)
        if short == "l":
            return self._clamp(l_level)
        if short == "vcm":
            # During conversion the sampling bottom plate is driven to Vcm.
            return self._clamp(np.broadcast_to(np.asarray(vcm, dtype=float),
                                               shape))

        top_initial = vcm if reset_closed_sampling else _UNRESET_TOP_PLATE

        # Bottom-plate potentials during sampling and conversion.
        sample_bottom_s = vin if input_closed_sampling else vcm
        convert_bottom_s = vin if input_closed_conversion else vcm
        if not input_closed_sampling:
            # The input was never sampled: the sampling capacitor carries no
            # signal charge.
            sample_bottom_s = convert_bottom_s

        c_total = cs + cm + cl
        if c_total <= 0.0:
            # Every capacitor open: the comparator input floats.
            return np.full(shape, _UNRESET_TOP_PLATE)

        delta_q = (cs * (convert_bottom_s - sample_bottom_s)
                   + cm * (m_level - vref_mid)
                   + cl * (l_level - vref_mid))
        top = top_initial + delta_q / c_total + mismatch

        if reset_closed_conversion:
            # The reset switch never opened: the top plate is resistively
            # loaded towards Vcm and only a fraction of the signal survives.
            top = vcm + _RESET_STUCK_ON_COUPLING * (top - vcm)
        return self._clamp(top)

    def _clamp(self, values: np.ndarray) -> np.ndarray:
        return clamp_column(values, self.dut.vss, self.dut.vdd)

    def evaluate(self, inputs: ScArrayInputs) -> ScArrayOutput:
        """Compute ``DAC+`` / ``DAC-`` for one conversion cycle."""
        return self.sweep((inputs,))[0]

    def sweep(self, inputs: Sequence[ScArrayInputs]) -> List[ScArrayOutput]:
        """Compute ``DAC+`` / ``DAC-`` for many cycles against one defect
        state: :meth:`columns` over the inputs' fields."""
        table = np.array([(x.in_p, x.in_m, x.m_p, x.m_m, x.l_p, x.l_m,
                           x.vcm, x.vref_mid) for x in inputs],
                         dtype=float).reshape(-1, 8)
        dac_p, dac_m = self.columns(self.resolve(), *table.T)
        return [ScArrayOutput(dac_p=p, dac_m=m)
                for p, m in zip(dac_p.tolist(), dac_m.tolist())]
