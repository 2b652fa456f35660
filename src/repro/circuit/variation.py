"""Process-variation modelling for Monte Carlo analysis.

SymBIST sets the window-comparator tolerance to ``delta = k * sigma`` where
``sigma`` is the standard deviation of the invariant signal under process,
voltage and temperature variations, estimated with a Monte Carlo analysis
(paper Section II).  This module provides the parameter-perturbation machinery
used by that analysis:

* :class:`VariationSpec` -- relative sigmas for each device family plus the
  mismatch sigma applied per-device on top of a correlated "global" shift.
* :func:`vary_netlist` -- apply one Monte Carlo draw to all passive devices of
  a structural netlist (ladders, dividers, SC array capacitors).
* :class:`GaussianParameter` -- a scalar behavioural parameter (amplifier
  offset, comparator offset, buffer gain error, ...) with a nominal value and
  a sigma, sampled per Monte Carlo iteration.

The behavioural blocks in :mod:`repro.adc` expose a ``sample_variation(rng)``
method built on these utilities; :mod:`repro.core.calibration` drives
whole-IP Monte Carlo runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .components import DeviceKind
from .errors import SimulationError
from .netlist import Netlist


@dataclass
class VariationSpec:
    """Relative (fractional) process-variation sigmas per device family.

    ``global_sigma`` models the lot-to-lot / die-to-die shift that moves all
    devices of a kind together; ``mismatch_sigma`` models local device-to-
    device mismatch.  Both are fractions of the nominal value (e.g. ``0.02``
    means 2 %).
    """

    resistor_global_sigma: float = 0.015
    resistor_mismatch_sigma: float = 0.002
    capacitor_global_sigma: float = 0.015
    capacitor_mismatch_sigma: float = 0.001
    mos_strength_sigma: float = 0.03
    supply_sigma: float = 0.005
    temperature_sigma_celsius: float = 15.0

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if name.endswith("sigma") and value < 0.0:
                raise SimulationError(f"{name} must be non-negative, got {value}")


@dataclass
class GaussianParameter:
    """A behavioural scalar parameter with Gaussian process variation.

    Examples: pre-amplifier input-referred offset (nominal 0 V, sigma a few
    millivolts), reference-buffer gain error, bandgap output voltage.
    """

    name: str
    nominal: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma < 0.0:
            raise SimulationError(
                f"parameter {self.name!r}: sigma must be non-negative")

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one Monte Carlo value of the parameter."""
        if self.sigma == 0.0:
            return self.nominal
        return float(self.nominal + self.sigma * rng.standard_normal())


def vary_netlist(netlist: Netlist, rng: np.random.Generator,
                 spec: Optional[VariationSpec] = None) -> Dict[str, float]:
    """Apply one process-variation draw to the passives of ``netlist``.

    The draw is expressed through each device's ``defect.value_scale`` *only
    when the device is defect-free*; an injected defect takes precedence so
    that defect simulation and Monte Carlo can coexist (defect simulation is
    normally run at the nominal process corner, like in the paper).

    Returns the mapping from device name to the applied scale factor, which is
    convenient for tests and for reproducibility checks.
    """
    spec = spec or VariationSpec()
    scales: Dict[str, float] = {}
    global_r = 1.0 + spec.resistor_global_sigma * float(rng.standard_normal())
    global_c = 1.0 + spec.capacitor_global_sigma * float(rng.standard_normal())
    for device in netlist:
        if not device.kind.is_passive:
            continue
        if device.has_defect:
            continue
        if device.kind is DeviceKind.RESISTOR:
            scale = global_r * (1.0 + spec.resistor_mismatch_sigma
                                * float(rng.standard_normal()))
        else:
            scale = global_c * (1.0 + spec.capacitor_mismatch_sigma
                                * float(rng.standard_normal()))
        scale = max(scale, 0.01)
        device.defect.value_scale = scale
        scales[device.name] = scale
    return scales


def reset_variation(netlist: Netlist) -> None:
    """Undo :func:`vary_netlist` on defect-free devices (scale back to 1.0)."""
    for device in netlist:
        if device.defect.shorted_terminals is None and \
                device.defect.open_terminal is None:
            device.defect.value_scale = 1.0
