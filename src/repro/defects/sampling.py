"""Likelihood-Weighted Random Sampling (LWRS) of the defect universe.

Paper context (Section V): "To reduce defect simulation time, we use the
stop-on-detection and Likelihood-Weighted Random Sampling (LWRS) options.
When the LWRS option is used, the 95 % confidence interval of the L-W defect
coverage is also reported."

LWRS draws defects with probability proportional to their likelihood.  The
key statistical property (from the DefectSim methodology the paper cites) is
that under likelihood-weighted sampling the *unweighted* detected fraction of
the sample is an unbiased estimator of the likelihood-weighted coverage of the
whole universe, and a binomial confidence interval applies directly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuit.errors import CoverageError
from .model import Defect
from .universe import DefectUniverse


@dataclass(frozen=True)
class SamplingPlan:
    """How a campaign walks the defect universe."""

    #: Simulate every defect of the universe (exact coverage, no CI).
    exhaustive: bool = True
    #: Number of LWRS samples when not exhaustive.
    n_samples: int = 100
    #: Draw with replacement (True matches the classical LWRS estimator).
    with_replacement: bool = True

    def __post_init__(self) -> None:
        if not self.exhaustive and self.n_samples <= 0:
            raise CoverageError("n_samples must be positive for LWRS sampling")


def lwrs_sample(universe: DefectUniverse, n_samples: int,
                rng: Optional[np.random.Generator] = None,
                with_replacement: bool = True) -> List[Defect]:
    """Draw ``n_samples`` defects with probability proportional to likelihood.

    Sampling with replacement is the textbook LWRS scheme; without
    replacement the estimator is slightly conservative but never simulates the
    same defect twice (useful for small universes).
    """
    if len(universe) == 0:
        raise CoverageError("cannot sample from an empty defect universe")
    if n_samples <= 0:
        raise CoverageError(f"n_samples must be positive, got {n_samples}")
    rng = rng if rng is not None else np.random.default_rng(0)
    probabilities = universe.probabilities()
    if not with_replacement and n_samples > len(universe):
        n_samples = len(universe)
    indices = rng.choice(len(universe), size=n_samples,
                         replace=with_replacement, p=probabilities)
    return [universe.defect(int(i)) for i in indices]


def select_defects(universe: DefectUniverse, plan: SamplingPlan,
                   rng: Optional[np.random.Generator] = None) -> List[Defect]:
    """Materialise a sampling plan into the list of defects to simulate."""
    if plan.exhaustive:
        return list(universe.defects)
    return lwrs_sample(universe, plan.n_samples, rng,
                       with_replacement=plan.with_replacement)


def block_seed_sequence(root: Union[int, np.random.SeedSequence],
                        block_path: str) -> np.random.SeedSequence:
    """Per-block ``SeedSequence`` derived from a root seed + the block path.

    The block path is hashed into spawn-key words appended to the root's, so
    each block's seed material depends only on ``(root, block_path)`` --
    never on how many other blocks a sweep visits or in which order.  This is
    what makes per-block campaigns invariant to block iteration order and
    block-subset restriction: the draws for ``sc_array`` are the same whether
    the sweep covers one block or all of them.
    """
    digest = hashlib.sha256(block_path.encode("utf-8")).digest()
    words = tuple(int.from_bytes(digest[i:i + 4], "little")
                  for i in range(0, 16, 4))
    if not isinstance(root, np.random.SeedSequence):
        root = np.random.SeedSequence(int(root))
    return np.random.SeedSequence(entropy=root.entropy,
                                  spawn_key=tuple(root.spawn_key) + words)


def variant_seed(root_seed: int, label: str) -> int:
    """Per-variant root seed derived from ``(root seed, variant label)``.

    A multi-variant study gives each variant its own deterministic root so
    calibration draws and LWRS selections decorrelate across variants while
    staying reproducible: the derivation depends only on the study's root
    seed and the variant's label, never on how many variants the study
    declares or in which order.  The label hash is folded down to 63 bits
    so the result stays a valid ``SeedSequence`` entropy value.
    """
    digest = hashlib.sha256(f"variant:{label}".encode("utf-8")).digest()
    word = int.from_bytes(digest[:8], "big") >> 1
    return (int(root_seed) ^ word) & ((1 << 63) - 1)


def batch_spans(n: int, batch_size: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` spans partitioning ``range(n)`` in order.

    Every index appears in exactly one span; only the final span may be
    shorter than ``batch_size``.  ``batch_size=1`` yields one span per index,
    which gives a campaign batches of one defect each.
    """
    if n < 0:
        raise CoverageError(f"cannot span a negative universe size ({n})")
    if batch_size <= 0:
        raise CoverageError(
            f"batch_size must be positive, got {batch_size}")
    return [(start, min(start + batch_size, n))
            for start in range(0, n, batch_size)]


def per_block_selection(universe: DefectUniverse,
                        seed: Union[int, np.random.SeedSequence],
                        n_samples: int,
                        exhaustive_threshold: Optional[int] = None,
                        blocks: Optional[Sequence[str]] = None,
                        exhaustive: bool = False
                        ) -> Dict[str, Tuple[SamplingPlan, List[Defect]]]:
    """Per-block sampling plans and defect selections of a block sweep.

    One entry per block, in ``blocks`` (or universe) order.  Blocks whose
    universe is not larger than ``exhaustive_threshold`` (default:
    ``n_samples``) are simulated exhaustively, mirroring the paper's Table I
    where small blocks have ``#defects == #defects simulated``; larger blocks
    draw an LWRS sample of ``n_samples`` from a generator seeded by
    :func:`block_seed_sequence`, so the selection is bit-identical for any
    block order, block subset or worker count.

    Shared by :meth:`repro.defects.DefectCampaign.run_per_block` and the
    campaign stage expander of the declarative study layer
    (:mod:`repro.engine.registry`, which every campaign-shaped study graph
    compiles through) so the flows can never drift apart in what they
    simulate.
    """
    threshold = exhaustive_threshold if exhaustive_threshold is not None \
        else n_samples
    block_list = list(blocks) if blocks is not None \
        else universe.block_paths()
    if not block_list:
        raise CoverageError("no blocks to simulate")
    selection: Dict[str, Tuple[SamplingPlan, List[Defect]]] = {}
    for block_path in block_list:
        block_universe = universe.by_block(block_path)
        if len(block_universe) == 0:
            raise CoverageError(
                f"no defects to simulate for block {block_path!r}")
        if exhaustive or len(block_universe) <= threshold:
            plan = SamplingPlan(exhaustive=True)
        else:
            plan = SamplingPlan(exhaustive=False, n_samples=n_samples)
        rng = np.random.default_rng(block_seed_sequence(seed, block_path))
        selection[block_path] = (plan, select_defects(block_universe, plan,
                                                      rng))
    return selection
