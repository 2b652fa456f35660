"""Base class shared by all analog / mixed-signal blocks of the SAR ADC IP.

An :class:`AnalogBlock` couples a *structural* netlist (the surface on which
the defect model enumerates and injects defects) with a *behavioral*
evaluation implemented by the concrete subclasses in this package.  The base
class provides the common plumbing: access to the netlist, defect clearing,
and per-block Monte Carlo process-variation sampling built from
:class:`~repro.circuit.variation.GaussianParameter` declarations.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..circuit.components import Device
from ..circuit.netlist import Netlist
from ..circuit.variation import (GaussianParameter, VariationSpec,
                                 reset_variation, vary_passives)


class AnalogBlock:
    """Common behaviour of the behavioral A/M-S blocks.

    Subclasses must populate ``self.netlist`` in their constructor and may
    register behavioral Gaussian parameters with :meth:`declare_parameter`.
    """

    #: Hierarchy path used when the block registers into the IP hierarchy.
    block_path: str = "block"

    def __init__(self, name: str) -> None:
        self.name = name
        self.netlist = Netlist(name)
        self._parameters: Dict[str, GaussianParameter] = {}
        self._sampled: Dict[str, float] = {}
        #: The netlist's passive devices, found on the first Monte Carlo
        #: draw (subclasses fill the netlist after this constructor).
        self._passives: Optional[List[Device]] = None

    # ----------------------------------------------------------- parameters
    def declare_parameter(self, name: str, nominal: float,
                          sigma: float) -> GaussianParameter:
        """Register a behavioral parameter subject to process variation."""
        param = GaussianParameter(name=f"{self.name}.{name}", nominal=nominal,
                                  sigma=sigma)
        self._parameters[name] = param
        self._sampled[name] = nominal
        return param

    def parameter(self, name: str) -> float:
        """Current (possibly Monte-Carlo-sampled) value of a parameter."""
        return self._sampled[name]

    def set_parameter(self, name: str, value: float) -> None:
        """Override a behavioral parameter (used by tests and what-if studies)."""
        if name not in self._parameters:
            raise KeyError(f"block {self.name!r} has no parameter {name!r}")
        self._sampled[name] = float(value)

    def override_nominal(self, name: str, value: float) -> None:
        """Retarget a parameter's *nominal* (design) value.

        Unlike :meth:`set_parameter`, the override survives
        :meth:`reset_variation` and recentres Monte Carlo draws, which is
        what a ``DutSpec`` per-block parameter override means: the variant's
        design value differs, not one sampled instance.
        """
        if name not in self._parameters:
            raise KeyError(
                f"block {self.name!r} has no parameter {name!r}; available: "
                f"{sorted(self._parameters)}")
        self._parameters[name].nominal = float(value)
        self._sampled[name] = float(value)

    @property
    def parameter_names(self) -> List[str]:
        return list(self._parameters.keys())

    def variation_state(self) -> Dict[str, float]:
        """Current sampled values of every behavioral parameter.

        Used (together with the structural netlist) to fingerprint the IP
        state for campaign result caching.
        """
        return dict(self._sampled)

    # -------------------------------------------------------------- variation
    def sample_variation(self, rng: np.random.Generator,
                         spec: Optional[VariationSpec] = None) -> None:
        """Apply one Monte Carlo draw to this block.

        Passive devices of the structural netlist get value-scale draws and
        every declared behavioral parameter is re-sampled from its Gaussian.
        """
        if self._passives is None:
            self._passives = [device for device in self.netlist
                              if device.kind.is_passive]
        vary_passives(self._passives, rng, spec)
        for name, param in self._parameters.items():
            self._sampled[name] = param.sample(rng)

    def reset_variation(self) -> None:
        """Undo :meth:`sample_variation`: every behavioral parameter back to
        its nominal value and every passive's value scale back to 1.0.

        Injected shorts and opens stay; a passive-deviation defect is a
        value scale too, so it is cleared like a drawn one.
        """
        reset_variation(self.netlist)
        for name, param in self._parameters.items():
            self._sampled[name] = param.nominal

    # ----------------------------------------------------------- defect state
    def clear_defects(self) -> None:
        """Remove any injected defect from this block's devices."""
        self.netlist.clear_defects()

    @property
    def has_defect(self) -> bool:
        return self.netlist.has_defect

    @property
    def device_count(self) -> int:
        return len(self.netlist)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(name={self.name!r}, "
                f"devices={self.device_count})")
