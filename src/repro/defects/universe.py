"""Defect-universe extraction.

Walks the structural hierarchy of the IP (every device of every A/M-S block)
and enumerates every defect of the standard model, weighted by the likelihood
model.  The resulting :class:`DefectUniverse` is the population over which
likelihood-weighted coverage is defined and from which LWRS draws its samples.

A study compiles against per-block counts, likelihoods and the few defects
its LWRS draw selects, so each block is held as columns
(:class:`BlockDefects`): one likelihood per device and defect kind, and ids
from the per-kind templates of :data:`~repro.defects.model.DEVICE_TEMPLATES`.
A :class:`Defect` is built when it is first read.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from ..circuit.errors import DefectError
from ..circuit.netlist import NetlistHierarchy
from .likelihood import LikelihoodModel
from .model import DEVICE_TEMPLATES, Defect, DefectTemplate


class BlockDefects:
    """The defects of one block as columns, in enumeration order."""

    def __init__(self, block_path: str, devices: Iterable,
                 likelihood_model: LikelihoodModel) -> None:
        self.block_path = block_path
        self._names: List[str] = []
        self._templates: List[DefectTemplate] = []
        #: One likelihood per defect.
        self.likelihoods: List[float] = []
        for device in devices:
            templates = DEVICE_TEMPLATES[device.kind]
            weight = {kind: likelihood_model.kind_likelihood(
                          kind, block_path, device)
                      for kind in {template.kind for template in templates}}
            self._names += [device.name] * len(templates)
            self._templates += templates
            self.likelihoods += [weight[template.kind]
                                 for template in templates]
        self._built: List[Optional[Defect]] = [None] * len(self.likelihoods)

    def __len__(self) -> int:
        return len(self.likelihoods)

    def defect(self, index: int) -> Defect:
        """The defect at ``index``, built on first read."""
        defect = self._built[index]
        if defect is None:
            defect = self._built[index] = self._templates[index].build(
                self.block_path, self._names[index], self.likelihoods[index])
        return defect

    def defects(self) -> List[Defect]:
        return [self.defect(index) for index in range(len(self))]


class DefectUniverse:
    """The complete set of modelled defects of an IP (or of some of its
    blocks), one :class:`BlockDefects` per block in enumeration order."""

    def __init__(self, blocks: Sequence[BlockDefects] = ()) -> None:
        self._blocks = {block.block_path: block for block in blocks}
        self._defects: Optional[List[Defect]] = None

    # ----------------------------------------------------------------- sizing
    def __len__(self) -> int:
        return sum(len(block) for block in self._blocks.values())

    def __iter__(self) -> Iterator[Defect]:
        return iter(self.defects)

    @property
    def defects(self) -> List[Defect]:
        """Every defect, in enumeration order (each built on first read)."""
        if self._defects is None:
            self._defects = [defect for block in self._blocks.values()
                             for defect in block.defects()]
        return self._defects

    def defect(self, index: int) -> Defect:
        """The defect at ``index``, building only that one."""
        for block in self._blocks.values():
            if index < len(block):
                return block.defect(index)
            index -= len(block)
        raise IndexError("defect index out of range")

    def likelihoods(self) -> List[float]:
        """Per-defect likelihoods, in enumeration order."""
        return [likelihood for block in self._blocks.values()
                for likelihood in block.likelihoods]

    @property
    def total_likelihood(self) -> float:
        return float(sum(self.likelihoods()))

    # -------------------------------------------------------------- selection
    def by_block(self, block_path: str) -> "DefectUniverse":
        """Sub-universe restricted to one block."""
        return self.by_blocks((block_path,))

    def by_blocks(self, block_paths: Iterable[str]) -> "DefectUniverse":
        """Sub-universe restricted to some blocks, in enumeration order."""
        wanted = set(block_paths)
        return DefectUniverse([block for path, block in self._blocks.items()
                               if path in wanted])

    def block_paths(self) -> List[str]:
        """Block paths present in the universe, in enumeration order."""
        return list(self._blocks)

    def find(self, defect_id: str) -> Defect:
        for defect in self.defects:
            if defect.defect_id == defect_id:
                return defect
        raise DefectError(f"defect {defect_id!r} is not in the universe")

    # --------------------------------------------------------------- sampling
    def probabilities(self) -> np.ndarray:
        """Per-defect selection probabilities proportional to likelihood."""
        if len(self) == 0:
            raise DefectError("cannot compute probabilities of an empty universe")
        weights = np.asarray(self.likelihoods(), dtype=float)
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
    columns = [BlockDefects(entry.path, entry.netlist, likelihood_model)
               for entry in hierarchy.blocks(group="ams")
               if wanted is None or entry.path in wanted]
    return DefectUniverse([block for block in columns if len(block)])
