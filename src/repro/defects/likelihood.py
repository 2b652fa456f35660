"""Defect-likelihood model (paper Section V).

"Defects are assigned a relative likelihood of occurrence that is estimated by
combining global defect-type likelihoods, i.e. the likelihood of short-circuits
is typically higher than the likelihood of open-circuits, and
component-specific likelihoods, i.e. the expected component area on the
layout."

The likelihood of defect ``d`` on device ``v`` is modelled as::

    L(d) = type_prior(kind(d)) * area_proxy(v)

which is exactly the structure the paper (and the DefectSim methodology it
cites) describes.  Only relative values matter: the likelihood-weighted
coverage and the LWRS sampling probabilities are ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..circuit.components import Device
from ..circuit.errors import DefectError
from .model import Defect, DefectKind

#: Default global defect-type priors (shorts more likely than opens, value
#: deviations of passives least likely).
DEFAULT_TYPE_PRIORS: Dict[DefectKind, float] = {
    DefectKind.SHORT: 0.50,
    DefectKind.OPEN: 0.35,
    DefectKind.PASSIVE_HIGH: 0.075,
    DefectKind.PASSIVE_LOW: 0.075,
}


@dataclass(frozen=True)
class LikelihoodModel:
    """Assigns relative likelihoods to defects.

    Parameters
    ----------
    type_priors:
        Global per-defect-kind priors.
    block_scale:
        Optional per-block multiplicative factors (e.g. a block laid out with
        conservative, defect-prone routing could be up-weighted).  Defaults to
        1.0 for every block.
    """

    type_priors: Mapping[DefectKind, float] = field(
        default_factory=lambda: dict(DEFAULT_TYPE_PRIORS))
    block_scale: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for kind, prior in self.type_priors.items():
            if prior <= 0.0:
                raise DefectError(
                    f"type prior for {kind} must be positive, got {prior}")
        for block, scale in self.block_scale.items():
            if scale <= 0.0:
                raise DefectError(
                    f"block scale for {block!r} must be positive, got {scale}")

    def likelihood(self, defect: Defect, device: Device) -> float:
        """Relative likelihood of one defect on its device."""
        return self.kind_likelihood(defect.kind, defect.block_path, device)

    def kind_likelihood(self, kind: DefectKind, block_path: str,
                        device: Device) -> float:
        """Relative likelihood of a ``kind`` defect on ``device`` of block
        ``block_path`` (what :meth:`likelihood` returns for such a defect)."""
        try:
            prior = self.type_priors[kind]
        except KeyError as exc:
            raise DefectError(
                f"no type prior configured for defect kind {kind}") from exc
        scale = self.block_scale.get(block_path, 1.0)
        return prior * device.area_proxy() * scale

    def reweight(self, defect: Defect, device: Device) -> Defect:
        """Return a copy of ``defect`` carrying its modelled likelihood."""
        return defect.reweighted(self.likelihood(defect, device))
