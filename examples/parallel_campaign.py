#!/usr/bin/env python3
"""Calibrate -> campaign as one task graph, parallel + cached.

Demonstrates the dependency-aware pipeline executor (:mod:`repro.engine`):

* the paper's two-phase workflow (window calibration on defect-free
  circuits, then the defect campaign against those windows) running as ONE
  task graph: the canned ``calibrate-then-campaign`` study
  (:data:`repro.engine.CALIBRATE_THEN_CAMPAIGN`, customised with
  :meth:`~repro.engine.StudySpec.override` and run with
  :func:`repro.engine.run_study`) -- Monte Carlo samples feed a ``windows``
  reduction task, which feeds the defect-batch tasks, with no stage barrier
  in between;
* the same workflow run the historical way (two separate invocations with
  hand-carried state), asserting the two are **bit-identical**: same window
  deltas, same per-defect detections, same coverage;
* a run on the process pool and a warm cache replay, both again
  bit-identical, with cached calibration parents unblocking the campaign
  stage immediately.

Run with::

    python examples/parallel_campaign.py --workers 4
    python examples/parallel_campaign.py --workers 4 --cache-dir .repro-cache
    python examples/parallel_campaign.py --blocks sc_array vcm_generator

The equivalent shell one-liners are::

    repro-campaign run calibrate-then-campaign --workers 4 \\
        --cache-dir .repro-cache
    repro-campaign run examples/studies/calibrate_then_campaign.toml \\
        --workers 4 --cache-dir .repro-cache

(the second runs the same canned study from its declarative spec -- see
``docs/studies.md``).
"""

from __future__ import annotations

import argparse
import tempfile

import numpy as np

from repro.adc import SarAdc
from repro.core import calibrate_windows, format_confidence, format_table
from repro.defects import DefectCampaign, SamplingPlan, block_seed_sequence
from repro.engine import (CALIBRATE_THEN_CAMPAIGN, ResultCache,
                          SharedMemoryBackend, run_study)


def manual_two_invocation_flow(args):
    """The historical flow: calibrate, then campaign, state carried by hand.

    Each block's LWRS draws come from ``block_seed_sequence(seed, block)``
    -- the scheme every per-block sweep (``run_per_block``, the pipeline and
    block-study graphs) uses, so the draws never depend on block order.
    """
    calibration = calibrate_windows(
        n_monte_carlo=args.monte_carlo, rng=np.random.default_rng(args.seed))
    campaign = DefectCampaign(adc=SarAdc(), deltas=calibration.deltas)
    results = {}
    for block in args.blocks:
        block_universe = campaign.universe.by_block(block)
        exhaustive = len(block_universe) <= args.exhaustive_threshold
        plan = SamplingPlan(exhaustive=exhaustive, n_samples=args.samples)
        rng = np.random.default_rng(block_seed_sequence(args.seed, block))
        results[block] = campaign.run(plan, blocks=[block], rng=rng)
    return calibration, results


def record_digest(result):
    """Everything that must match bit-for-bit between the two flows."""
    return [(r.defect.defect_id, r.detected, r.detecting_invariance,
             r.detection_cycle, r.cycles_run) for r in result.records]


def rows_for(outcome_results):
    rows = []
    for block, result in outcome_results.items():
        report = result.block_report(block)
        rows.append([block, report.n_simulated, result.n_detected,
                     format_confidence(report.coverage.value,
                                       report.coverage.ci_half_width)])
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=4,
                        help="process-pool width of the parallel run")
    parser.add_argument("--samples", type=int, default=40,
                        help="LWRS budget for blocks too large to exhaust")
    parser.add_argument("--exhaustive-threshold", type=int, default=80)
    parser.add_argument("--monte-carlo", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--blocks", nargs="*",
                        default=["vcm_generator", "sc_array"],
                        help="block paths to campaign over")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent cache directory (defaults to a "
                             "temporary one)")
    args = parser.parse_args()
    headers = ["block", "#simulated", "#detected", "L-W coverage"]
    spec = CALIBRATE_THEN_CAMPAIGN.override({
        "seed": args.seed, "calibrate.n_monte_carlo": args.monte_carlo,
        "campaign.blocks": args.blocks, "campaign.samples": args.samples,
        "campaign.exhaustive_threshold": args.exhaustive_threshold})

    print("1) manual two-invocation flow (calibrate, then campaign)...")
    calibration, manual = manual_two_invocation_flow(args)

    print("2) the same workflow as ONE task graph, serial...")
    serial = run_study(spec)
    print()
    print(format_table(headers, rows_for(serial.results),
                       title="pipeline, serial"))
    print(f"   {serial.report.summary()}, "
          f"{serial.report.wall_time:.2f}s wall")

    assert serial.calibration.deltas == calibration.deltas, \
        "pipeline windows differ from calibrate_windows"
    for block in args.blocks:
        assert record_digest(serial.results[block]) == \
            record_digest(manual[block]), f"records differ for {block}"
    print("   bit-identical to the manual flow "
          "(windows, detections, cycle counts)")

    cache_dir = args.cache_dir or tempfile.mkdtemp(prefix="repro-cache-")
    print(f"3) sharded across {args.workers} workers, cold cache...")
    parallel = run_study(
        spec, backend=SharedMemoryBackend(max_workers=args.workers),
        cache=ResultCache(cache_dir, namespace="pipeline"))
    print(f"   {parallel.report.summary()}, "
          f"{parallel.report.wall_time:.2f}s wall")

    print("4) warm cache replay (parents short-circuit instantly)...")
    warm = run_study(spec, cache=ResultCache(cache_dir, namespace="pipeline"))
    print(f"   {warm.report.summary()}, "
          f"{warm.report.wall_time:.2f}s wall")

    for block in args.blocks:
        assert record_digest(parallel.results[block]) == \
            record_digest(manual[block])
        assert record_digest(warm.results[block]) == \
            record_digest(manual[block])
    assert warm.report.n_cache_hits == warm.report.n_tasks
    print()
    print("serial / parallel / cached pipeline all bit-identical to the "
          "manual two-invocation flow")
    print(f"cache directory: {cache_dir}")


if __name__ == "__main__":
    main()
