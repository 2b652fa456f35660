"""Defect model (paper Section V).

"We rely on a standard defect model that includes short- and open-circuits
across transistor and diode terminals and +/-50 % variations in passive
components, i.e. resistors and capacitors.  We use a short defect resistance
of 10 ohms.  A weak pull-up or pull-down is assigned to each open defect to
account for the fact that an ideal open does not exist."

A :class:`Defect` is a *description*: which device of which block it affects,
which kind of defect it is, and which terminals are involved.  Injection (the
mutation of the device's :class:`~repro.circuit.components.DefectState`) is
performed by :mod:`repro.defects.injection`; enumeration of all defects of an
IP is performed by :mod:`repro.defects.universe`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Optional, Tuple

from ..circuit.components import Device, DeviceKind, PullDirection, TERMINALS
from ..circuit.errors import DefectError
from ..circuit.units import PASSIVE_DEVIATION, SHORT_RESISTANCE


class DefectKind(str, Enum):
    """The defect classes of the standard A/M-S defect model."""

    SHORT = "short"              # low-resistance bridge between two terminals
    OPEN = "open"                # broken terminal with a weak pull
    PASSIVE_HIGH = "passive_high"  # passive value +50 %
    PASSIVE_LOW = "passive_low"    # passive value -50 %


@dataclass(frozen=True)
class Defect:
    """One potential manufacturing defect of the IP.

    Attributes
    ----------
    defect_id:
        Unique, stable identifier (``block/device:kind:detail``).
    block_path:
        Hierarchy path of the block containing the device.
    device_name:
        Local name of the affected device inside the block netlist.
    kind:
        The defect class.
    terminals:
        The shorted terminal pair (for shorts) or the opened terminal (for
        opens) as a tuple; empty for passive deviations.
    pull:
        Weak pull direction assigned to an open defect.
    likelihood:
        Relative likelihood of occurrence (set by the likelihood model; the
        absolute scale is irrelevant, only ratios matter).
    """

    defect_id: str
    block_path: str
    device_name: str
    kind: DefectKind
    terminals: Tuple[str, ...] = ()
    pull: Optional[PullDirection] = None
    likelihood: float = 1.0

    def __post_init__(self) -> None:
        if self.likelihood <= 0.0:
            raise DefectError(
                f"defect {self.defect_id!r}: likelihood must be positive")
        if self.kind is DefectKind.SHORT and len(self.terminals) != 2:
            raise DefectError(
                f"defect {self.defect_id!r}: a short needs two terminals")
        if self.kind is DefectKind.OPEN and len(self.terminals) != 1:
            raise DefectError(
                f"defect {self.defect_id!r}: an open needs one terminal")

    @property
    def description(self) -> str:
        """Human-readable one-liner."""
        if self.kind is DefectKind.SHORT:
            return (f"short {self.terminals[0]}-{self.terminals[1]} "
                    f"({SHORT_RESISTANCE:g} ohm) on "
                    f"{self.block_path}/{self.device_name}")
        if self.kind is DefectKind.OPEN:
            pull = self.pull.value if self.pull else "none"
            return (f"open {self.terminals[0]} (weak pull {pull}) on "
                    f"{self.block_path}/{self.device_name}")
        sign = "+" if self.kind is DefectKind.PASSIVE_HIGH else "-"
        return (f"{sign}{int(PASSIVE_DEVIATION * 100)}% value deviation on "
                f"{self.block_path}/{self.device_name}")

    def reweighted(self, likelihood: float) -> "Defect":
        """Copy of the defect with a different likelihood."""
        return Defect(defect_id=self.defect_id, block_path=self.block_path,
                      device_name=self.device_name, kind=self.kind,
                      terminals=self.terminals, pull=self.pull,
                      likelihood=likelihood)


def _default_pull(device: Device, terminal: str) -> PullDirection:
    """Deterministic weak-pull assignment for an open defect.

    Gate opens of NMOS devices and P-type terminals default to a pull-down,
    PMOS gates to a pull-up; other terminals pull towards the rail they
    normally connect to, approximated by the device kind.  The choice is
    deterministic so that the defect universe is reproducible.
    """
    if device.kind is DeviceKind.PMOS:
        return PullDirection.UP
    if device.kind is DeviceKind.NMOS:
        return PullDirection.DOWN
    return PullDirection.DOWN


def enumerate_device_defects(
        block_path: str, device: Device,
        likelihood: Optional[Callable[[DefectKind], float]] = None
) -> List[Defect]:
    """All defects of the standard model applicable to one device.

    ``likelihood`` maps a defect kind to the likelihood its defects are
    built with (1.0 when omitted).

    ======================  ==========================================
    device kind             defects
    ======================  ==========================================
    MOS (4 terminals)       6 terminal-pair shorts + 4 terminal opens
    switch (3 terminals)    3 shorts + 3 opens
    BJT (3 terminals)       3 shorts + 3 opens
    diode (2 terminals)     1 short + 2 opens
    resistor / capacitor    1 short + 1 open + value +/-50 %
    ======================  ==========================================
    """
    defects: List[Defect] = []
    prefix = f"{block_path}/{device.name}"
    terminals = TERMINALS[device.kind]
    weight = likelihood if likelihood is not None else (lambda kind: 1.0)

    for term_a, term_b in itertools.combinations(terminals, 2):
        defects.append(Defect(
            defect_id=f"{prefix}:short:{term_a}-{term_b}",
            block_path=block_path, device_name=device.name,
            kind=DefectKind.SHORT, terminals=(term_a, term_b),
            likelihood=weight(DefectKind.SHORT)))
    for term in terminals:
        defects.append(Defect(
            defect_id=f"{prefix}:open:{term}",
            block_path=block_path, device_name=device.name,
            kind=DefectKind.OPEN, terminals=(term,),
            pull=_default_pull(device, term),
            likelihood=weight(DefectKind.OPEN)))
    if device.kind.is_passive:
        defects.append(Defect(
            defect_id=f"{prefix}:passive_high",
            block_path=block_path, device_name=device.name,
            kind=DefectKind.PASSIVE_HIGH,
            likelihood=weight(DefectKind.PASSIVE_HIGH)))
        defects.append(Defect(
            defect_id=f"{prefix}:passive_low",
            block_path=block_path, device_name=device.name,
            kind=DefectKind.PASSIVE_LOW,
            likelihood=weight(DefectKind.PASSIVE_LOW)))
        # For a two-terminal passive the short and the two opens are kept
        # (short, open at either end behaves identically in the model, but the
        # physical defect sites differ, as in layout-aware defect extraction).
    return defects
