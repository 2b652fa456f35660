"""``tools/diff_study_json.py`` flags any change to a deterministic value."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from repro.engine.cli import main

TOOL = Path(__file__).resolve().parents[2] / "tools" / "diff_study_json.py"


@pytest.fixture(scope="module")
def diff_tool():
    spec = importlib.util.spec_from_file_location("diff_study_json", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def payload(tmp_path_factory):
    """A tiny yield-loss study: every stage's JSON fragment is present."""
    out = tmp_path_factory.mktemp("diff") / "study.json"
    assert main(["run", "yield-loss-study", "--set", "seed=1",
                 "--set", "calibrate.n_monte_carlo=3",
                 "--set", "campaign.blocks=vcm_generator",
                 "--set", "yield.k_values=2,5",
                 "--set", "escape.max_escape_defects=2",
                 "--json", str(out)]) == 0
    return json.loads(out.read_text())


def test_identical_payloads_pass(diff_tool, payload):
    assert diff_tool.diff(payload, copy.deepcopy(payload), "a", "b") == []
    # A payload written before the JSON dropped its execution account
    # still reads as equal, on either side.
    legacy = copy.deepcopy(payload)
    legacy["engine"] = "12 tasks via shm (2 workers), 12 executed, 0 cached"
    legacy["workers"] = 2
    assert diff_tool.diff(legacy, payload, "a", "b") == []
    assert diff_tool.diff(payload, legacy, "a", "b") == []


def test_unknown_top_level_key_fails(diff_tool, payload):
    extra = copy.deepcopy(payload)
    extra["backend"] = "shm"
    problems = diff_tool.diff(payload, extra, "a", "b")
    assert problems == ["top-level keys differ: a has [] extra, "
                        "b has ['backend'] extra"]


@pytest.mark.parametrize("path, edit", [
    ("escapes.n_functional_escapes", lambda p: p["escapes"].update(
        n_functional_escapes=p["escapes"]["n_functional_escapes"] + 1)),
    ("yield_loss[0].empirical", lambda p: p["yield_loss"][0].update(
        empirical=p["yield_loss"][0]["empirical"] + 0.5)),
    ("seed", lambda p: p.update(seed=2)),
    ("k", lambda p: p.update(k=4.0)),
])
def test_flags_a_hand_edited_value(diff_tool, payload, path, edit):
    edited = copy.deepcopy(payload)
    edit(edited)
    problems = diff_tool.diff(payload, edited, "a", "b")
    assert len(problems) == 1
    assert problems[0].startswith(f"{path} differs")


def test_cli_exit_status(diff_tool, payload, tmp_path, capsys):
    same, edited = tmp_path / "same.json", tmp_path / "edited.json"
    same.write_text(json.dumps(payload))
    changed = copy.deepcopy(payload)
    changed["escapes"]["n_benign"] += 1
    edited.write_text(json.dumps(changed))
    assert diff_tool.main([str(same), str(same)]) == 0
    assert diff_tool.main([str(same), str(edited)]) == 1
    assert "escapes.n_benign differs" in capsys.readouterr().err


def test_flags_a_changed_block_timing(diff_tool, payload):
    edited = copy.deepcopy(payload)
    block = edited["blocks"][0]
    block["timing"]["modeled_sim_time"] *= 2
    problems = diff_tool.diff(payload, edited, "a", "b")
    assert len(problems) == 1
    assert problems[0].startswith(f"block {block['block']}: timing differs")
