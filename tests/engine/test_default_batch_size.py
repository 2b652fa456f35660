"""The campaign stage's default batch size is the constant 32.

The batch layout is part of every campaign task's id and cache key, so the
default must not depend on the worker count: a cache warmed serially must
replay in full under a pool.  Results are bit-identical at every batch
size, so the default study's JSON equals the one of batches of one.
"""

import importlib.util
import json
import math
from pathlib import Path

from repro.engine import (BLOCK_STUDY, ResultCache, SerialBackend,
                          SharedMemoryBackend, build_study, run_study)
from repro.engine.cli import main

DEFAULT_BATCH_SIZE = 32

TOOL = Path(__file__).resolve().parents[2] / "tools" / "diff_study_json.py"

#: Two blocks with more defects than one default batch, run exhaustively.
SMALL_STUDY = {"seed": 1, "calibrate.n_monte_carlo": 3,
               "campaign.blocks": ["vcm_generator", "rs_latch"],
               "campaign.exhaustive_threshold": 60}


def _campaign_weights(plan):
    graph = plan.pipeline.graph
    return {block: [graph.get(task_id).weight for task_id in task_ids]
            for block, task_ids in plan.block_task_ids.items()}


def test_block_study_splits_each_block_into_batches_of_32():
    batched = _campaign_weights(build_study(BLOCK_STUDY))
    singles = _campaign_weights(build_study(
        BLOCK_STUDY.override({"campaign.batch_size": 1})))
    assert batched.keys() == singles.keys()
    for block, weights in batched.items():
        n_block = len(singles[block])
        assert sum(weights) == n_block
        assert len(weights) == math.ceil(n_block / DEFAULT_BATCH_SIZE)
        assert max(weights) <= DEFAULT_BATCH_SIZE
        assert all(weight == DEFAULT_BATCH_SIZE for weight in weights[:-1])


def test_default_study_json_equals_batches_of_one(tmp_path):
    spec = importlib.util.spec_from_file_location("diff_study_json", TOOL)
    diff_tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(diff_tool)
    common = ["run", "block-study"]
    for key, value in SMALL_STUDY.items():
        if isinstance(value, list):
            value = ",".join(value)
        common += ["--set", f"{key}={value}"]
    default_out = tmp_path / "default.json"
    single_out = tmp_path / "single.json"
    assert main(common + ["--json", str(default_out)]) == 0
    assert main(common + ["--set", "campaign.batch_size=1",
                          "--json", str(single_out)]) == 0
    default = json.loads(default_out.read_text())
    single = json.loads(single_out.read_text())
    assert diff_tool.diff(default, single, "default", "batch_size=1") == []


def test_serially_warmed_cache_replays_in_full_under_a_pool(tmp_path):
    spec = BLOCK_STUDY.override(SMALL_STUDY)
    cache = ResultCache(str(tmp_path / "cache"), namespace="calibration")
    cold = run_study(spec, backend=SerialBackend(), cache=cache)
    assert cold.report.n_executed == cold.report.n_tasks
    warm = run_study(spec, backend=SharedMemoryBackend(max_workers=2),
                     cache=cache)
    assert warm.report.n_executed == 0
    assert warm.report.n_cache_hits == warm.report.n_tasks == \
        cold.report.n_tasks
    assert [r.defect.defect_id for result in warm.results.values()
            for r in result.records] == \
        [r.defect.defect_id for result in cold.results.values()
         for r in result.records]
