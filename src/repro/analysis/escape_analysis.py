"""Test-escape analysis: do the defects SymBIST misses matter functionally?

The paper closes with: "Undetected defects should be analysed carefully and it
is also interesting to report the percentage of undetected defects that result
in at least one specification being violated.  This is a tedious and
time-consuming analysis and is out of the scope of this paper."

This module performs exactly that analysis on the behavioral model: for every
(sampled) defect that the SymBIST campaign left undetected, the functional
test suite measures the converter against its datasheet.  Escapes split into

* **benign escapes** -- the part still meets every specification; missing them
  costs nothing (they are the reason L-W coverage understates quality);
* **functional escapes** -- the part violates at least one specification;
  these are the true test escapes that would reach customers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..adc.sar_adc import SarAdc
from ..adc.spec import AdcSpecification
from ..circuit.errors import CoverageError
from ..defects.injection import DefectInjector
from ..defects.model import Defect
from ..defects.simulator import (CampaignResult, defect_from_jsonable,
                                 defect_to_jsonable)
from ..engine import ResultCodec
from ..functional_test.baseline_bist import FunctionalBistBaseline


@dataclass
class EscapeRecord:
    """Functional assessment of one SymBIST-undetected defect."""

    defect: Defect
    spec_violations: List[str]
    gross_failure: bool

    @property
    def is_functional_escape(self) -> bool:
        """True when the undetected defect breaks at least one specification."""
        return self.gross_failure or bool(self.spec_violations)


@dataclass
class EscapeAnalysisResult:
    """Aggregate outcome of the escape analysis."""

    records: List[EscapeRecord]
    n_undetected_total: int

    @property
    def n_analyzed(self) -> int:
        return len(self.records)

    @property
    def n_functional_escapes(self) -> int:
        return sum(1 for r in self.records if r.is_functional_escape)

    @property
    def n_benign(self) -> int:
        return self.n_analyzed - self.n_functional_escapes

    @property
    def functional_escape_fraction(self) -> float:
        """Fraction of analysed undetected defects that violate a spec."""
        if self.n_analyzed == 0:
            raise CoverageError("no undetected defects were analysed")
        return self.n_functional_escapes / self.n_analyzed

    def violations_histogram(self) -> Dict[str, int]:
        """How often each specification is violated among the escapes."""
        histogram: Dict[str, int] = {}
        for record in self.records:
            for name in record.spec_violations:
                histogram[name] = histogram.get(name, 0) + 1
        return histogram

    def by_block(self) -> Dict[str, List[EscapeRecord]]:
        grouped: Dict[str, List[EscapeRecord]] = {}
        for record in self.records:
            grouped.setdefault(record.defect.block_path, []).append(record)
        return grouped


def _escapes_to_jsonable(result: EscapeAnalysisResult) -> Dict[str, Any]:
    return {
        "n_undetected_total": result.n_undetected_total,
        "records": [{"defect": defect_to_jsonable(r.defect),
                     "spec_violations": list(r.spec_violations),
                     "gross_failure": r.gross_failure}
                    for r in result.records],
    }


def _escapes_from_jsonable(data: Mapping[str, Any]) -> EscapeAnalysisResult:
    return EscapeAnalysisResult(
        records=[EscapeRecord(defect=defect_from_jsonable(raw["defect"]),
                              spec_violations=list(raw["spec_violations"]),
                              gross_failure=raw["gross_failure"])
                 for raw in data["records"]],
        n_undetected_total=data["n_undetected_total"])


#: Cache codec turning escape analyses into JSON artifacts and back; used by
#: the study layer's ``escape`` stage (:mod:`repro.engine.registry`).
ESCAPE_CODEC = ResultCodec(encode=_escapes_to_jsonable,
                           decode=_escapes_from_jsonable)


def analyze_escapes(campaign_result: CampaignResult,
                    adc: Optional[SarAdc] = None,
                    injector: Optional[DefectInjector] = None,
                    spec: Optional[AdcSpecification] = None,
                    baseline: Optional[FunctionalBistBaseline] = None,
                    max_defects: Optional[int] = 20,
                    rng: Optional[np.random.Generator] = None
                    ) -> EscapeAnalysisResult:
    """Run the functional suite on (a sample of) the undetected defects.

    Parameters
    ----------
    campaign_result:
        Result of a SymBIST defect campaign.
    adc / injector:
        The IP instance and injector to reuse; fresh ones are built otherwise
        (the analysis then applies to an identical nominal-corner instance).
    max_defects:
        Upper bound on how many undetected defects to analyse (the functional
        suite needs hundreds of conversions per defect, which is exactly the
        "tedious and time-consuming" cost the paper mentions).  ``None``
        analyses every undetected defect.
    """
    undetected = campaign_result.undetected_defects()
    if not undetected:
        return EscapeAnalysisResult(records=[], n_undetected_total=0)

    if adc is None:
        adc = SarAdc()
    if injector is None:
        injector = DefectInjector(adc.build_hierarchy())
    baseline = baseline or FunctionalBistBaseline(
        linearity_span_codes=48, samples_per_code=4, sine_samples=128,
        spec=spec or AdcSpecification())

    selected: Sequence[Defect] = undetected
    if max_defects is not None and len(undetected) > max_defects:
        rng = rng if rng is not None else np.random.default_rng(0)
        indices = rng.choice(len(undetected), size=max_defects, replace=False)
        selected = [undetected[int(i)] for i in indices]

    records: List[EscapeRecord] = []
    for defect in selected:
        with injector.injected(defect):
            outcome = baseline.run(adc)
        records.append(EscapeRecord(defect=defect,
                                    spec_violations=list(outcome.violations),
                                    gross_failure=outcome.gross_failure))
    return EscapeAnalysisResult(records=records,
                                n_undetected_total=len(undetected))
