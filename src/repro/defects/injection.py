"""Defect injection: mutate a device's defect state and restore it afterwards.

The injector resolves a :class:`~repro.defects.model.Defect` description to
the concrete :class:`~repro.circuit.components.Device` inside the IP hierarchy
and mutates its :class:`~repro.circuit.components.DefectState`.  Injection is
exposed both as explicit ``inject`` / ``remove`` calls and as a context
manager, which is what the campaign runner uses so that a failure in the
middle of a simulation can never leak a defect into the next one.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from ..circuit.components import Device
from ..circuit.errors import DefectError
from ..circuit.netlist import NetlistHierarchy
from ..circuit.units import PASSIVE_DEVIATION, SHORT_RESISTANCE
from .model import Defect, DefectKind


class DefectInjector:
    """Injects defects into the devices of an IP hierarchy."""

    def __init__(self, hierarchy: NetlistHierarchy) -> None:
        self.hierarchy = hierarchy
        self._active: Optional[Defect] = None

    # ----------------------------------------------------------------- lookup
    def resolve(self, defect: Defect) -> Device:
        """Find the device a defect applies to."""
        try:
            return self.hierarchy.find_device(defect.block_path,
                                              defect.device_name)
        except Exception as exc:  # NetlistError
            raise DefectError(
                f"cannot resolve defect {defect.defect_id!r}: {exc}") from exc

    # -------------------------------------------------------------- injection
    def inject(self, defect: Defect) -> Device:
        """Apply ``defect`` to its device (single-defect assumption enforced)."""
        if self._active is not None:
            raise DefectError(
                f"defect {self._active.defect_id!r} is already injected; "
                "remove it before injecting another one")
        device = self.resolve(defect)
        if device.has_defect:
            raise DefectError(
                f"device {defect.block_path}/{defect.device_name} already "
                "carries a defect or a variation; clear it first")
        state = device.defect
        if defect.kind is DefectKind.SHORT:
            state.shorted_terminals = (defect.terminals[0], defect.terminals[1])
            state.short_resistance = SHORT_RESISTANCE
        elif defect.kind is DefectKind.OPEN:
            state.open_terminal = defect.terminals[0]
            state.open_pull = defect.pull
        elif defect.kind is DefectKind.PASSIVE_HIGH:
            state.value_scale = 1.0 + PASSIVE_DEVIATION
        elif defect.kind is DefectKind.PASSIVE_LOW:
            state.value_scale = 1.0 - PASSIVE_DEVIATION
        else:  # pragma: no cover - exhaustive enum
            raise DefectError(f"unsupported defect kind {defect.kind}")
        self._active = defect
        return device

    def remove(self) -> None:
        """Remove the currently injected defect (no-op when none is active)."""
        if self._active is None:
            return
        device = self.resolve(self._active)
        device.clear_defect()
        self._active = None

    @contextmanager
    def injected(self, defect: Defect) -> Iterator[Device]:
        """Context manager: inject on entry, always remove on exit."""
        device = self.inject(defect)
        try:
            yield device
        finally:
            self.remove()
