"""Hierarchical structural netlists.

A :class:`Netlist` is an ordered collection of primitive
:class:`~repro.circuit.components.Device` instances plus the set of nets they
connect.  Each analog block of the SAR ADC IP (:mod:`repro.adc`) owns one
netlist describing its structure; the block's behavioral evaluation reads the
*effective* device values from that netlist so that an injected defect
(a mutation of a device's :class:`~repro.circuit.components.DefectState`)
propagates into the electrical behaviour.

Netlists can be grouped hierarchically with :class:`NetlistHierarchy`, which is
what the defect-universe extractor walks to enumerate all devices of the IP
with fully qualified names such as ``subdac1/rladder_07``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .components import (Device, capacitor, nmos, pmos, pnp, resistor,
                         switch)
from .errors import NetlistError


class Netlist:
    """An ordered, named collection of primitive devices.

    Parameters
    ----------
    name:
        Block name; becomes the hierarchy path prefix of its devices.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise NetlistError("netlist name must be a non-empty string")
        self.name = name
        self._devices: Dict[str, Device] = {}

    # ------------------------------------------------------------------ build
    def add(self, device: Device) -> Device:
        """Add a pre-built device; returns it for chaining."""
        if device.name in self._devices:
            raise NetlistError(
                f"netlist {self.name!r}: duplicate device name {device.name!r}")
        self._devices[device.name] = device
        return device

    def add_resistor(self, name: str, p: str, n: str, value: float) -> Device:
        return self.add(resistor(name, p, n, value))

    def add_capacitor(self, name: str, p: str, n: str, value: float) -> Device:
        return self.add(capacitor(name, p, n, value))

    def add_switch(self, name: str, p: str, n: str, ctrl: str,
                   ron: float = 100.0, w: float = 2e-6,
                   l: float = 65e-9) -> Device:
        return self.add(switch(name, p, n, ctrl, ron, w, l))

    def add_nmos(self, name: str, d: str, g: str, s: str, b: str = "vss",
                 w: float = 1e-6, l: float = 65e-9) -> Device:
        return self.add(nmos(name, d, g, s, b, w, l))

    def add_pmos(self, name: str, d: str, g: str, s: str, b: str = "vdd",
                 w: float = 2e-6, l: float = 65e-9) -> Device:
        return self.add(pmos(name, d, g, s, b, w, l))

    def add_pnp(self, name: str, c: str, b: str, e: str,
                area: float = 1.0) -> Device:
        return self.add(pnp(name, c, b, e, area))

    # ----------------------------------------------------------------- access
    def device(self, name: str) -> Device:
        """Return the device called ``name`` or raise :class:`NetlistError`."""
        try:
            return self._devices[name]
        except KeyError as exc:
            raise NetlistError(
                f"netlist {self.name!r} has no device {name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._devices

    def __len__(self) -> int:
        return len(self._devices)

    def __iter__(self) -> Iterator[Device]:
        return iter(self._devices.values())

    @property
    def devices(self) -> List[Device]:
        """Devices in insertion order."""
        return list(self._devices.values())

    @property
    def nets(self) -> List[str]:
        """All net names referenced by the devices, sorted."""
        names = {net for dev in self._devices.values()
                 for net in dev.nets.values()}
        return sorted(names)

    # ----------------------------------------------------------- defect state
    def clear_defects(self) -> None:
        """Reset every device in this netlist to its defect-free state."""
        for dev in self._devices.values():
            dev.clear_defect()

    @property
    def has_defect(self) -> bool:
        """True if any device currently carries an injected defect."""
        return any(dev.has_defect for dev in self._devices.values())

    def defective_devices(self) -> List[Device]:
        return [d for d in self._devices.values() if d.has_defect]

    # -------------------------------------------------------------- reporting
    def summary(self) -> Dict[str, int]:
        """Device count per kind, useful for area estimation and reports."""
        counts: Dict[str, int] = {}
        for dev in self._devices.values():
            counts[dev.kind.value] = counts.get(dev.kind.value, 0) + 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Netlist({self.name!r}, {len(self)} devices)"


@dataclass
class HierarchyEntry:
    """One block inside a :class:`NetlistHierarchy`."""

    path: str
    netlist: Netlist
    group: str = "ams"  # "ams" or "digital": paper splits the IP this way


class NetlistHierarchy:
    """A named tree (flattened to paths) of block netlists.

    The SAR ADC IP exposes its analog blocks through a hierarchy so that the
    defect-universe extractor can enumerate every device with a fully
    qualified ``block_path/device_name`` identifier, and so that coverage can
    be reported per block exactly like Table I of the paper.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._entries: Dict[str, HierarchyEntry] = {}

    def register(self, path: str, netlist: Netlist,
                 group: str = "ams") -> HierarchyEntry:
        """Register ``netlist`` under hierarchy path ``path``."""
        if not path:
            raise NetlistError("hierarchy path must be non-empty")
        if path in self._entries:
            raise NetlistError(
                f"hierarchy {self.name!r}: duplicate path {path!r}")
        if group not in ("ams", "digital"):
            raise NetlistError(f"unknown block group {group!r}")
        entry = HierarchyEntry(path=path, netlist=netlist, group=group)
        self._entries[path] = entry
        return entry

    # ----------------------------------------------------------------- access
    def entry(self, path: str) -> HierarchyEntry:
        try:
            return self._entries[path]
        except KeyError as exc:
            raise NetlistError(
                f"hierarchy {self.name!r} has no block {path!r}") from exc

    def netlist(self, path: str) -> Netlist:
        return self.entry(path).netlist

    @property
    def paths(self) -> List[str]:
        return list(self._entries.keys())

    def blocks(self, group: Optional[str] = None) -> List[HierarchyEntry]:
        """All registered blocks, optionally filtered by group."""
        entries = list(self._entries.values())
        if group is None:
            return entries
        return [e for e in entries if e.group == group]

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[HierarchyEntry]:
        return iter(self._entries.values())

    # ---------------------------------------------------------------- devices
    def iter_devices(self, group: Optional[str] = None
                     ) -> Iterator[Tuple[str, Device]]:
        """Yield ``(block_path, device)`` pairs across the hierarchy."""
        for entry in self.blocks(group):
            for dev in entry.netlist:
                yield entry.path, dev

    def device_count(self, group: Optional[str] = None) -> int:
        return sum(1 for _ in self.iter_devices(group))

    def find_device(self, block_path: str, device_name: str) -> Device:
        """Resolve a device by block path and local device name."""
        return self.netlist(block_path).device(device_name)

    def clear_defects(self) -> None:
        """Reset every device of every registered block."""
        for entry in self._entries.values():
            entry.netlist.clear_defects()

    def summary(self) -> Dict[str, Dict[str, int]]:
        """Per-block device-kind counts."""
        return {path: e.netlist.summary() for path, e in self._entries.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NetlistHierarchy({self.name!r}, {len(self)} blocks)"
