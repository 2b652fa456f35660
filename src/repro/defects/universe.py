"""Defect-universe extraction.

Walks the structural hierarchy of the IP (every device of every A/M-S block)
and enumerates every defect of the standard model, weighted by the likelihood
model.  The resulting :class:`DefectUniverse` is the population over which
likelihood-weighted coverage is defined and from which LWRS draws its samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..circuit.errors import DefectError
from ..circuit.netlist import NetlistHierarchy
from .likelihood import LikelihoodModel
from .model import Defect, DefectKind, enumerate_device_defects


@dataclass
class DefectUniverse:
    """The complete set of modelled defects of an IP (or of one block)."""

    defects: List[Defect] = field(default_factory=list)

    # ----------------------------------------------------------------- sizing
    def __len__(self) -> int:
        return len(self.defects)

    def __iter__(self) -> Iterator[Defect]:
        return iter(self.defects)

    @property
    def total_likelihood(self) -> float:
        return float(sum(d.likelihood for d in self.defects))

    # -------------------------------------------------------------- selection
    def by_block(self, block_path: str) -> "DefectUniverse":
        """Sub-universe restricted to one block."""
        subset = [d for d in self.defects if d.block_path == block_path]
        return DefectUniverse(subset)

    def by_kind(self, kind: DefectKind) -> "DefectUniverse":
        return DefectUniverse([d for d in self.defects if d.kind == kind])

    def block_paths(self) -> List[str]:
        """Block paths present in the universe, in first-appearance order."""
        seen: Dict[str, None] = {}
        for defect in self.defects:
            seen.setdefault(defect.block_path, None)
        return list(seen.keys())

    def find(self, defect_id: str) -> Defect:
        for defect in self.defects:
            if defect.defect_id == defect_id:
                return defect
        raise DefectError(f"defect {defect_id!r} is not in the universe")

    # -------------------------------------------------------------- reporting
    def counts_by_block(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for defect in self.defects:
            counts[defect.block_path] = counts.get(defect.block_path, 0) + 1
        return counts

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for defect in self.defects:
            counts[defect.kind.value] = counts.get(defect.kind.value, 0) + 1
        return counts

    def likelihood_by_block(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for defect in self.defects:
            totals[defect.block_path] = totals.get(defect.block_path, 0.0) \
                + defect.likelihood
        return totals

    # --------------------------------------------------------------- sampling
    def probabilities(self) -> np.ndarray:
        """Per-defect selection probabilities proportional to likelihood."""
        if not self.defects:
            raise DefectError("cannot compute probabilities of an empty universe")
        weights = np.asarray([d.likelihood for d in self.defects], dtype=float)
        return weights / weights.sum()


def build_defect_universe(hierarchy: NetlistHierarchy,
                          likelihood_model: Optional[LikelihoodModel] = None,
                          blocks: Optional[Sequence[str]] = None
                          ) -> DefectUniverse:
    """Enumerate every defect of the hierarchy, with likelihoods.

    Parameters
    ----------
    hierarchy:
        The structural hierarchy built by
        :meth:`repro.adc.sar_adc.SarAdc.build_hierarchy`.
    likelihood_model:
        Likelihood model; defaults to the standard type-prior x area model.
    blocks:
        Optional restriction to a subset of block paths.
    """
    likelihood_model = likelihood_model or LikelihoodModel()
    wanted = set(blocks) if blocks is not None else None
    defects: List[Defect] = []
    for block_path, device in hierarchy.iter_devices(group="ams"):
        if wanted is not None and block_path not in wanted:
            continue
        defects.extend(enumerate_device_defects(
            block_path, device,
            lambda kind: likelihood_model.kind_likelihood(kind, block_path,
                                                          device)))
    return DefectUniverse(defects)
