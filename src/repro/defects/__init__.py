"""Defect modelling and defect-simulation campaigns (paper Section V).

This package re-implements the campaign mechanics the paper delegates to the
Tessent DefectSim tool: the standard short/open/passive-deviation defect
model, defect-universe extraction from the structural netlists, likelihood
assignment (defect-type priors x device-area proxies), Likelihood-Weighted
Random Sampling, defect injection, stop-on-detection campaign execution, and
likelihood-weighted coverage with 95 % confidence intervals.
"""

from .diagnosis import (BlockScore, DiagnosisReport, diagnose,
                        diagnosis_accuracy)
from .coverage import (CoverageEstimate, Z_95, combine_detected_likelihood,
                       exhaustive_coverage, lwrs_coverage, wilson_interval)
from .injection import DefectInjector
from .likelihood import DEFAULT_TYPE_PRIORS, LikelihoodModel
from .model import Defect, DefectKind, enumerate_device_defects
from .batching import BatchedDefectEvaluator, LOCAL_STAGE
from .sampling import (SamplingPlan, batch_spans, block_seed_sequence,
                       lwrs_sample, per_block_selection, select_defects,
                       variant_seed)
from .simulator import (BlockCoverageReport, CampaignResult, DefectCampaign,
                        DefectSimulationRecord, MODEL_SECONDS_PER_CYCLE,
                        RECORD_CODEC)
from .universe import DefectUniverse, build_defect_universe

__all__ = [
    "BatchedDefectEvaluator", "BlockCoverageReport", "CampaignResult",
    "CoverageEstimate",
    "DEFAULT_TYPE_PRIORS", "Defect", "DefectCampaign", "DefectInjector",
    "DefectKind", "DefectSimulationRecord", "DefectUniverse",
    "LOCAL_STAGE", "LikelihoodModel", "MODEL_SECONDS_PER_CYCLE",
    "RECORD_CODEC",
    "SamplingPlan", "Z_95",
    "BlockScore", "DiagnosisReport", "diagnose", "diagnosis_accuracy",
    "batch_spans",
    "block_seed_sequence", "build_defect_universe",
    "combine_detected_likelihood", "enumerate_device_defects",
    "exhaustive_coverage", "lwrs_coverage", "lwrs_sample",
    "per_block_selection", "select_defects", "variant_seed",
    "wilson_interval",
]
