"""The compiled task graphs of the canned studies and the variant sweep.

Task ids, stage names, groups, weights, dependency edges, seeds and cache
specs decide which cached artifacts a study replays and how its results
are assembled, so a change to the study compiler must leave every graph
byte-identical.  Each graph is pinned by the first 16 hex digits of the
SHA-256 of its canonical JSON, one row per task in graph order.
"""

import hashlib
import os

import pytest

from repro.engine import build_study, canonical_json, load_study

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: study -> (task count, graph digest).
PINNED_GRAPHS = {
    "block-study": (91, "e21569dcd04662e8"),
    "calibrate-then-campaign": (72, "9696b094d509ac75"),
    "yield-loss-study": (78, "ef752366a5b082cd"),
    "examples/studies/variant_sweep.toml": (273, "317f9370b7f1a064"),
}


def graph_rows(plan):
    """One ``[task_id, stage, group, weight, depends_on, seed,
    deterministic, spec]`` row per task of a compiled plan."""
    pipeline = plan.pipeline
    return [[task.task_id, pipeline.stage_of[task.task_id], task.group,
             task.weight, list(task.depends_on), task.seed,
             task.deterministic, task.spec]
            for task in pipeline.graph]


@pytest.mark.parametrize("study", sorted(PINNED_GRAPHS))
def test_compiled_graph_is_pinned(study):
    path = os.path.join(REPO_ROOT, study) if study.endswith(".toml") \
        else study
    rows = graph_rows(build_study(load_study(path)))
    n_tasks, digest = PINNED_GRAPHS[study]
    assert len(rows) == n_tasks
    assert hashlib.sha256(
        canonical_json(rows).encode()).hexdigest()[:16] == digest
