"""5-bit sub-DACs (SUBDAC1 / SUBDAC2) of the resistive + charge-redistribution DAC.

Paper context (Section III, Fig. 4): the 10-bit DAC is composed of two
structurally identical 5-bit sub-DACs plus a switched-capacitor array.
SUBDAC1 converts the five MSBs ``B<5:9>`` to the complementary comparison
levels ``M+`` / ``M-`` and SUBDAC2 converts the five LSBs ``B<0:4>`` to
``L+`` / ``L-`` according to Eq. (1) of the paper::

    OUT+ = VREF[code]          OUT- = VREF[32 - code]

Each sub-DAC is modelled as a pair of 33-to-1 tap multiplexers on the shared
reference ladder: one enable driver (a CMOS inverter pair) per tap, a tap
switch per output per tap (the negative output of tap ``t`` reuses the driver
of tap ``32 - t``, which is how the complementary selection is obtained), and
a small output buffer per output.  All of these devices are part of the defect
universe; the defect-to-behaviour mapping is:

* tap-switch defects: stuck-on adds a tap to the output node permanently,
  stuck-off removes it even when selected (missing tap);
* enable-driver defects: the pull-up stuck on forces the tap always selected,
  the pull-down stuck on (or the pull-up stuck off) makes the tap never
  selected; "weak" driver defects leave the selection unaffected and are
  therefore *undetectable by construction* (they contribute to the undetected
  population exactly like the real IP's benign defects);
* output-buffer defects: rail the output or add an offset.

Selected taps are combined by conductance-weighted averaging (the physical
result of several finite-resistance switches driving one node); an output with
no connected tap floats and discharges to the leakage level.

The tap count, the complementary-selection arithmetic and the rails all
derive from the instance's :class:`~repro.dut.DutSpec`: an ``n``-bit variant
has two ``n/2``-bit sub-DACs with ``2**(n/2) + 1`` taps each (the literals
above describe the paper's 10-bit device).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.components import Device
from ..circuit.errors import SimulationError
from ..dut import DutSpec, default_dut
from .behavioral import MosState, mos_state, switch_state
from .block import AnalogBlock

#: Nominal on-resistance of a tap switch.
_RON = 200.0


@dataclass
class SubDacOutput:
    """Complementary outputs of one sub-DAC for one input code."""

    out_p: float
    out_n: float


class SubDac(AnalogBlock):
    """One half-resolution sub-DAC (two complementary tap multiplexers)."""

    block_path = "subdac"

    def __init__(self, name: str, dut: Optional[DutSpec] = None) -> None:
        super().__init__(name)
        self.dut = dut or default_dut()
        #: Ladder taps of this instance; the highest tap index (``2**h``)
        #: is also the complement pivot of Eq. (1).
        self.n_levels = self.dut.n_ref_levels
        self._top = self.n_levels - 1
        self._code_max = self.dut.counter_codes - 1
        #: Voltage a floating (disconnected) output leaks to.
        self._float_level = self.dut.vss
        nl = self.netlist
        # Enable drivers: one CMOS inverter pair per tap (near-minimum digital
        # devices, hence a small area / defect-likelihood proxy).
        for j in range(self.n_levels):
            nl.add_pmos(f"drv_{j:02d}_p", d=f"en_{j}", g=f"sel_{j}", s="vdd",
                        w=0.6e-6)
            nl.add_nmos(f"drv_{j:02d}_n", d=f"en_{j}", g=f"sel_{j}", s="vss",
                        w=0.35e-6)
        # Tap switches for the positive and negative outputs.  They are sized
        # for low on-resistance (fast DAC settling), so their area -- and
        # therefore their defect likelihood -- is larger than the drivers'.
        for j in range(self.n_levels):
            nl.add_switch(f"swp_{j:02d}", p=f"tap_{j}", n="out_p",
                          ctrl=f"en_{j}", ron=_RON, w=1.5e-6)
            nl.add_switch(f"swn_{j:02d}", p=f"tap_{j}", n="out_n",
                          ctrl=f"en_{self._top - j}", ron=_RON, w=1.5e-6)
        # Output buffers (source follower + bias per output).
        nl.add_pmos("bufp_sf", d="vss", g="out_p", s="buf_p", w=3e-6)
        nl.add_nmos("bufp_bias", d="buf_p", g="nbias", s="vss", w=2e-6)
        nl.add_pmos("bufn_sf", d="vss", g="out_n", s="buf_n", w=3e-6)
        nl.add_nmos("bufn_bias", d="buf_n", g="nbias", s="vss", w=2e-6)

        self.declare_parameter("buffer_offset_p", 0.0, sigma=0.5e-3)
        self.declare_parameter("buffer_offset_n", 0.0, sigma=0.5e-3)

    # ------------------------------------------------------------------ model
    @staticmethod
    def _forced_inverter_output(pull_up: Device,
                                pull_down: Device) -> "bool | None":
        """Forced logic value of a defective enable driver, or ``None``.

        The driver is a CMOS inverter whose output is the switch-enable node.
        The mapping follows the physical reasoning per terminal:

        * pull-down drain-source or drain-bulk short: the enable is tied to
          ground -> forced low (the tap can never be selected);
        * pull-up drain-source or drain-bulk short: the enable is tied to the
          supply -> forced high (the tap is always selected);
        * pull-up unable to conduct (gate-source / gate-bulk short, open
          drain/source/gate): the enable can never be driven high -> forced
          low;
        * pull-down unable to conduct: the enable node cannot be discharged;
          once the counter selects the tap the floating node retains its high
          level, so the tap effectively stays selected -> forced high;
        * the remaining defects (source-bulk shorts, gate-drain shorts, bulk
          opens) only degrade the drive strength and leave the logic value
          unchanged -> ``None`` (these are the benign, undetectable defects).

        A conflict (both outputs forced) resolves to the rail short, which is
        the lower-impedance path.
        """
        def forced(device: Device, rail_value: bool) -> "bool | None":
            defect = device.defect
            if defect.is_clean:
                return None
            pair = defect.shorted_terminals
            if pair is not None:
                terms = set(pair)
                if terms in ({"d", "s"}, {"d", "b"}):
                    return rail_value            # output tied to this rail
                if terms in ({"g", "s"}, {"g", "b"}):
                    return not rail_value        # device can never conduct
                return None                      # g-d, s-b: degraded only
            term = defect.open_terminal
            if term in ("d", "s", "g"):
                return not rail_value            # device can never conduct
            return None                          # bulk open: degraded only

        forced_by_down = forced(pull_down, rail_value=False)
        forced_by_up = forced(pull_up, rail_value=True)
        if forced_by_down is False:
            return False
        if forced_by_up is True:
            return True
        if forced_by_up is False:
            return False
        if forced_by_down is True:
            return True
        return None

    def _tap_state(self, side: str, tap: int
                   ) -> Tuple[float, bool, bool, Optional[bool]]:
        """``(g, con_on, con_off, forced)`` of one tap of one multiplexer:
        its conductance, whether its switch conducts when enabled/disabled,
        and the forced enable value of its decoder driver (``None`` when the
        driver switches normally)."""
        if side == "p":
            switch_dev = self.netlist.device(f"swp_{tap:02d}")
            driver_tap = tap
        else:
            switch_dev = self.netlist.device(f"swn_{tap:02d}")
            driver_tap = self._top - tap
        pull_up = self.netlist.device(f"drv_{driver_tap:02d}_p")
        pull_down = self.netlist.device(f"drv_{driver_tap:02d}_n")
        forced = None
        if pull_up.has_defect or pull_down.has_defect:
            forced = self._forced_inverter_output(pull_up, pull_down)
        return (_conductance(switch_dev), switch_state(switch_dev, True),
                switch_state(switch_dev, False), forced)

    @cached_property
    def _clean_tables(self) -> Dict[str, Tuple[List[float], List[bool],
                                               List[bool],
                                               List[Optional[bool]]]]:
        """:meth:`_tap_state` of every tap of both multiplexers with every
        device clean.  Tap conductances depend only on the switches' ``ron``
        parameters, which neither defects nor Monte Carlo draws change."""
        n = self.n_levels
        return {side: ([_conductance(self.netlist.device(
                            f"sw{side}_{tap:02d}")) for tap in range(n)],
                       [True] * n, [False] * n, [None] * n)
                for side in ("p", "n")}

    @cached_property
    def _device_taps(self) -> Dict[str, List[Tuple[str, int]]]:
        """The ``(side, tap)`` multiplexer entries each device takes part
        in: a tap switch in one, an enable driver in one per side."""
        taps: Dict[str, List[Tuple[str, int]]] = {}
        for tap in range(self.n_levels):
            taps[f"swp_{tap:02d}"] = [("p", tap)]
            taps[f"swn_{tap:02d}"] = [("n", tap)]
            for half in ("p", "n"):
                taps[f"drv_{tap:02d}_{half}"] = [("p", tap),
                                                  ("n", self._top - tap)]
        return taps

    def _mux_table(self, side: str, defective: Sequence[Device]
                   ) -> Tuple[List[float], List[bool], List[bool],
                              List[Optional[bool]], List[int]]:
        """Code-independent per-tap state of one (defective) multiplexer.

        Returns ``(g, con_on, con_off, forced, anomalous)``: the per-tap
        entries of :meth:`_tap_state` and the sorted list of *anomalous*
        taps -- taps that deviate from clean behaviour (forced enable, a
        switch that conducts while disabled, or one that does not conduct
        while enabled).  Every non-anomalous tap contributes conductance
        exactly when it is the nominally selected tap, which is what lets
        :meth:`_mux_from_table` visit only ``anomalous + [selected]``.

        The table starts from :attr:`_clean_tables`; only the taps whose
        switch or driver pair is among the ``defective`` devices are
        re-resolved, because every other tap is clean.
        """
        g, con_on, con_off, forced = (
            list(column) for column in self._clean_tables[side])
        touched = sorted({tap for device in defective
                          for entry_side, tap in
                          self._device_taps.get(device.name, ())
                          if entry_side == side})
        anomalous: List[int] = []
        for tap in touched:
            g[tap], con_on[tap], con_off[tap], forced[tap] = \
                self._tap_state(side, tap)
            if forced[tap] is not None or not con_on[tap] or con_off[tap]:
                anomalous.append(tap)
        return g, con_on, con_off, forced, anomalous

    def _mux_from_table(self,
                        table: Tuple[List[float], List[bool], List[bool],
                                     List[Optional[bool]], List[int]],
                        sel: int, vref: Sequence[float]) -> float:
        """Conductance-weighted tap voltage seen at one multiplexer output
        when tap ``sel`` is selected.

        Equal to the walk over every tap that sums the conductance of each
        conducting one: contributing taps are accumulated in ascending tap
        order, and the taps skipped here are exactly those that contribute
        zero conductance (clean, not selected).
        """
        g, con_on, con_off, forced, anomalous = table
        if sel in anomalous:
            taps = anomalous
        else:
            taps = sorted(anomalous + [sel])
        total_g = 0.0
        weighted = 0.0
        for tap in taps:
            enable = forced[tap]
            if enable is None:
                enable = tap == sel
            if not (con_on[tap] if enable else con_off[tap]):
                continue
            conductance = g[tap]
            total_g += conductance
            weighted += conductance * vref[tap]
        if total_g <= 0.0:
            return self._float_level
        return weighted / total_g

    def _apply_buffer(self, raw: float, offset: float, sf_state: MosState,
                      bias_state: MosState) -> float:
        """The (possibly defective) output buffer of one side, for device
        states resolved once per sweep."""
        value = raw + offset
        if sf_state is MosState.STUCK_OFF:
            value = self._float_level
        elif sf_state is MosState.STUCK_ON:
            value = raw * 0.9
        elif sf_state is MosState.DEGRADED:
            value = raw + offset - 0.02
        if bias_state is MosState.STUCK_ON:
            value = max(value - 0.1, self.dut.vss)
        elif bias_state is MosState.STUCK_OFF:
            value = min(value + 0.05, self.dut.vdd)
        return min(max(value, self.dut.vss), self.dut.vdd)

    def evaluate(self, code: int, vref: Sequence[float]) -> SubDacOutput:
        """Convert a half-resolution ``code`` into the complementary outputs.

        Parameters
        ----------
        code:
            The digital input (``0 .. 2**half_bits - 1``).
        vref:
            The reference levels ``VREF[0] .. VREF[2**half_bits]``.
        """
        return self.sweep((code,), vref)[0]

    def sweep(self, codes: Sequence[int],
              vref: Sequence[float]) -> List[SubDacOutput]:
        """Evaluate many codes against one defect state of the netlist.

        One ``netlist.defective_devices()`` scan per sweep decides the path.
        Defect-free, exactly one switch per output is closed, so the mux
        output is the selected tap and the buffer only adds its
        (process-variation) offset.  Otherwise the per-tap mux behaviour and
        the buffer device states are resolved once and each code is
        evaluated against the tables.  This is the sub-DAC hot path of the
        batched defect evaluator.
        """
        if len(vref) != self.n_levels:
            raise SimulationError(
                f"expected {self.n_levels} reference levels, got {len(vref)}")
        defective = self.netlist.defective_devices()
        offset_p = self.parameter("buffer_offset_p")
        offset_n = self.parameter("buffer_offset_n")
        outputs: List[SubDacOutput] = []
        if defective:
            table_p = self._mux_table("p", defective)
            table_n = self._mux_table("n", defective)
            sf_p = mos_state(self.netlist.device("bufp_sf"))
            bias_p = mos_state(self.netlist.device("bufp_bias"))
            sf_n = mos_state(self.netlist.device("bufn_sf"))
            bias_n = mos_state(self.netlist.device("bufn_bias"))
        for code in codes:
            if not 0 <= code <= self._code_max:
                raise SimulationError(
                    f"sub-DAC code must be in [0, {self._code_max}], "
                    f"got {code}")
            if not defective:
                outputs.append(SubDacOutput(
                    out_p=self._clamp(vref[code] + offset_p),
                    out_n=self._clamp(vref[self._top - code] + offset_n)))
                continue
            outputs.append(SubDacOutput(
                out_p=self._apply_buffer(
                    self._mux_from_table(table_p, code, vref),
                    offset_p, sf_p, bias_p),
                out_n=self._apply_buffer(
                    self._mux_from_table(table_n, self._top - code, vref),
                    offset_n, sf_n, bias_n)))
        return outputs

    def _clamp(self, value: float) -> float:
        return min(max(value, self.dut.vss), self.dut.vdd)


def _conductance(switch: Device) -> float:
    """On-conductance of a tap switch, from its ``ron`` floored at 1 mOhm."""
    return 1.0 / max(float(switch.params.get("ron", _RON)), 1e-3)


def make_subdac1(dut: Optional[DutSpec] = None) -> SubDac:
    """SUBDAC1: converts the MSB half-code ``B<5:9>`` into ``M+`` / ``M-``."""
    dac = SubDac("subdac1", dut=dut)
    dac.block_path = "subdac1"
    return dac


def make_subdac2(dut: Optional[DutSpec] = None) -> SubDac:
    """SUBDAC2: converts the LSB half-code ``B<0:4>`` into ``L+`` / ``L-``."""
    dac = SubDac("subdac2", dut=dut)
    dac.block_path = "subdac2"
    return dac
