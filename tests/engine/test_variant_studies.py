"""Multi-variant DUT studies: fan-out, seeding and backend equivalence.

The study layer compiles ``[[variants]]`` into per-variant stage instances
inside ONE task graph; these tests pin the guarantees that make that safe:
every variant gets its own derived root seed and cache identity, the
per-variant results are bit-identical across the serial and process-pool
backends (under a randomized root seed), and a variant that
changes the device (the 8-bit DUT) actually runs a different device.
"""

import random

import numpy as np
import pytest

from repro.defects import variant_seed
from repro.dut import DutSpec
from repro.engine import (ResultCache, StageSpec, StudySpec, VariantSpec,
                          build_study, run_study)

#: Randomized root seed, printed on failure via the parametrized id; one
#: draw per test session keeps the three backend runs comparable.
ROOT_SEED = random.Random().randrange(2 ** 31)

BLOCK = "vcm_generator"


def _variant_study(seed):
    return StudySpec(
        name="variant-equivalence",
        seed=seed,
        stages=(
            StageSpec(stage="calibrate", params={"n_monte_carlo": 3}),
            StageSpec(stage="windows", after=("calibrate",),
                      params={"k": 5.0, "per_block": True}),
            StageSpec(stage="campaign", after=("windows",),
                      params={"samples": 4, "exhaustive_threshold": 8,
                              "blocks": [BLOCK]}),
            StageSpec(stage="block-summary", name="summary",
                      after=("windows", "campaign")),
        ),
        variants=(
            VariantSpec(name="nominal"),
            VariantSpec(name="eight-bit", dut={"resolution_bits": 8}),
            VariantSpec(name="vdd-low", dut={"vdd": 1.08}),
        ),
    ).validated()


def _variant_digest(outcome):
    """Deterministic content of one variant's outcome, as comparable data
    (wall-clock fields legitimately differ between backends and are
    excluded)."""
    result = outcome.results[BLOCK]
    return {
        "records": [(r.defect.defect_id, r.detected,
                     r.detecting_invariance, r.detection_cycle,
                     r.cycles_run, r.modeled_sim_time)
                    for r in result.records],
        "deltas": outcome.calibrations[BLOCK].deltas,
        "summary": {key: value
                    for key, value in outcome.summaries[BLOCK].items()
                    if key not in ("timing", "wall_time")},
    }


def _all_digests(outcome):
    return {name: _variant_digest(sub)
            for name, sub in outcome.variants.items()}


class TestVariantFanOut:
    def test_plan_has_per_variant_builds_and_seeds(self):
        spec = _variant_study(ROOT_SEED)
        plan = build_study(spec)
        assert sorted(plan.variants) == ["eight-bit", "nominal", "vdd-low"]
        seeds = {name: variant_seed(ROOT_SEED, name)
                 for name in plan.variants}
        assert len(set(seeds.values())) == 3
        assert all(seed != ROOT_SEED for seed in seeds.values())
        fingerprints = {name: vplan.dut_fingerprint
                        for name, vplan in plan.variants.items()}
        assert fingerprints["nominal"] == DutSpec().fingerprint()
        assert fingerprints["eight-bit"] == \
            DutSpec(resolution_bits=8).fingerprint()
        assert len(set(fingerprints.values())) == 3

    def test_variant_seed_is_stable_and_label_sensitive(self):
        assert variant_seed(7, "a") == variant_seed(7, "a")
        assert variant_seed(7, "a") != variant_seed(7, "b")
        assert variant_seed(7, "a") != variant_seed(8, "a")
        assert 0 <= variant_seed(7, "a") < 2 ** 63


#: Serial baseline, computed once and shared by the backend cases.
_SERIAL_BASELINE = {}


def _serial_digests():
    if "digests" not in _SERIAL_BASELINE:
        outcome = run_study(_variant_study(ROOT_SEED))
        assert outcome.ok, f"root seed {ROOT_SEED}"
        _SERIAL_BASELINE["digests"] = _all_digests(outcome)
    return _SERIAL_BASELINE["digests"]


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend_name", ["multiprocess", "shm"])
    def test_eight_bit_variant_study_identical_across_backends(
            self, backend_name, cli_backend):
        """Randomized equivalence case (root seed drawn per session): every
        backend must reproduce the serial per-variant results exactly."""
        spec = _variant_study(ROOT_SEED)
        outcome = run_study(spec, backend=cli_backend(backend_name))
        assert outcome.ok, f"root seed {ROOT_SEED}"
        assert _all_digests(outcome) == _serial_digests(), \
            f"root seed {ROOT_SEED}"

    def test_variants_produce_distinct_results(self):
        digests = _serial_digests()
        # The 8-bit device has its own universe/windows; at minimum its
        # sampled defects differ from the nominal 10-bit run.
        assert digests["eight-bit"]["records"] != \
            digests["nominal"]["records"]

    def test_variants_never_share_cache_artifacts(self, tmp_path):
        import json
        import os
        spec = _variant_study(ROOT_SEED)
        cache = ResultCache(str(tmp_path / "cache"), namespace="engine")
        cold = run_study(spec, cache=cache)
        assert cold.ok
        cold_artifacts = len(cache)
        # Every artifact belongs to exactly one variant: its spec carries
        # the variant annotation matching its task-id prefix.  (LWRS samples
        # with replacement, so a defect drawn twice within one variant may
        # legitimately share an artifact -- across variants never.)
        seen_variants = set()
        for name in os.listdir(cache.cache_dir):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(cache.cache_dir, name),
                      encoding="utf-8") as handle:
                entry = json.load(handle)
            variant = entry["task_id"].split("/", 1)[0]
            spec_variant = entry["spec"].get("variant") or \
                entry["spec"].get("windows", {}).get("variant") or \
                entry["spec"].get("calibration", {}).get("variant")
            assert spec_variant == variant, entry["task_id"]
            seen_variants.add(variant)
        assert seen_variants == {"nominal", "eight-bit", "vdd-low"}
        # The warm replay reuses every artifact and reproduces the results.
        warm = run_study(spec, cache=cache)
        assert warm.ok
        assert len(cache) == cold_artifacts
        assert _all_digests(warm) == _all_digests(cold)
