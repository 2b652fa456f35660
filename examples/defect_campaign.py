#!/usr/bin/env python3
"""Defect-simulation campaign: reproduce a Table-I-style coverage report.

Runs the full defect-oriented flow of the paper on the behavioral IP model:
defect-universe extraction, likelihood weighting, LWRS sampling (or exhaustive
simulation of small blocks), stop-on-detection SymBIST runs and
likelihood-weighted coverage with 95 % confidence intervals.

Each block's LWRS draws derive from the root seed + the block path, so the
rows are identical for any block order, subset or worker count.  Serially
the sweep is a plain in-process loop (``DefectCampaign.run_per_block``);
``--workers N`` runs the same sweep as the canned
``calibrate-then-campaign`` study on a process pool
(:func:`repro.engine.run_study`), with identical rows.

Run with::

    python examples/defect_campaign.py --samples-per-block 60
    python examples/defect_campaign.py --blocks sc_array vcm_generator
    python examples/defect_campaign.py --workers 4

The same sweep -- with per-block window calibration and per-block summary
reductions folded into the one graph -- is the canned ``block-study``
study: ``repro-campaign run examples/studies/block_study.toml`` (see
``docs/studies.md``).
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.adc import SarAdc
from repro.core import calibrate_windows, format_confidence, format_table
from repro.defects import DefectCampaign, SamplingPlan
from repro.engine import (CALIBRATE_THEN_CAMPAIGN, SharedMemoryBackend,
                          run_study)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples-per-block", type=int, default=60,
                        help="LWRS budget for blocks too large to exhaust")
    parser.add_argument("--whole-ip-samples", type=int, default=101,
                        help="LWRS budget for the complete A/M-S part row")
    parser.add_argument("--monte-carlo", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes of the sweep (1 = serial)")
    parser.add_argument("--blocks", nargs="*", default=None,
                        help="restrict the campaign to these block paths")
    args = parser.parse_args()

    print("calibrating comparison windows (delta = 5 sigma)...")
    calibration = calibrate_windows(n_monte_carlo=args.monte_carlo,
                                    rng=np.random.default_rng(args.seed))
    campaign = DefectCampaign(adc=SarAdc(), deltas=calibration.deltas,
                              stop_on_detection=True)

    print(f"defect universe: {len(campaign.universe)} defects across "
          f"{len(campaign.universe.block_paths())} A/M-S blocks")

    # Small blocks exhaustively, large ones with a per-block LWRS budget.
    threshold = 2 * args.samples_per_block
    engine_summary = None
    if args.workers <= 1:
        results = campaign.run_per_block(
            n_samples_per_block=args.samples_per_block, seed=args.seed,
            exhaustive_threshold=threshold, blocks=args.blocks)
    else:
        # The same calibration and sweep as one study graph on a pool.
        outcome = run_study(
            CALIBRATE_THEN_CAMPAIGN.override({
                "seed": args.seed,
                "calibrate.n_monte_carlo": args.monte_carlo,
                "campaign.samples": args.samples_per_block,
                "campaign.exhaustive_threshold": threshold,
                "campaign.blocks": args.blocks}),
            backend=SharedMemoryBackend(max_workers=args.workers))
        assert outcome.calibration.deltas == calibration.deltas
        results = outcome.results
        engine_summary = (f"{outcome.report.summary()}, "
                          f"{outcome.report.wall_time:.2f}s wall")

    rows = []
    for block, result in results.items():
        report = result.block_report(block)
        rows.append([block, report.n_defects, report.n_simulated,
                     f"{report.modeled_sim_time:.0f}",
                     format_confidence(report.coverage.value,
                                       report.coverage.ci_half_width)])

    if args.blocks is None:
        whole = campaign.run(SamplingPlan(exhaustive=False,
                                          n_samples=args.whole_ip_samples),
                             rng=np.random.default_rng(args.seed))
        overall = whole.overall_report()
        rows.append(["complete A/M-S part", len(campaign.universe),
                     overall.n_simulated,
                     f"{overall.modeled_sim_time:.0f}",
                     format_confidence(overall.coverage.value,
                                       overall.coverage.ci_half_width)])

    print()
    print(format_table(
        ["A/M-S block", "#defects", "#simulated", "model sim time (s)",
         "L-W defect coverage"],
        rows, title="SymBIST defect-simulation campaign (Table I style)"))
    if engine_summary is not None:
        print()
        print(f"engine (per-block sweep): {engine_summary}")


if __name__ == "__main__":
    main()
