"""Two cold runs of one study write the same bytes.

Results hold no measured time, so under a fixed root seed two runs of a
study into fresh cache directories, each in its own process, write
byte-identical ``--json`` payloads and cache artifacts that differ only in
their ``created`` stamp.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.engine import canonical_json

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: The tiny sizes of the CI study smoke runs.
TINY = ["--set", "calibrate.n_monte_carlo=3",
        "--set", "campaign.samples=5",
        "--set", "campaign.exhaustive_threshold=10"]

STUDIES = {
    "block-study": TINY + [
        "--set", "campaign.blocks=vcm_generator,offset_compensation"],
    "yield-loss-study": TINY + ["--set", "escape.max_escape_defects=3"],
}

BACKENDS = {
    "serial": [],
    "shm": ["--backend", "shm", "--workers", "2"],
}


def _cold_run(study, backend, run_dir):
    """One ``repro-campaign run`` process into a fresh cache directory;
    returns the JSON payload's bytes and the cache directory."""
    os.makedirs(run_dir)
    cache_dir = os.path.join(run_dir, "cache")
    json_path = os.path.join(run_dir, "study.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    subprocess.run(
        [sys.executable, "-m", "repro.engine.cli", "run", study, "--quiet",
         "--cache-dir", cache_dir, "--json", json_path]
        + STUDIES[study] + BACKENDS[backend],
        check=True, env=env, cwd=run_dir)
    with open(json_path, "rb") as handle:
        return handle.read(), cache_dir


def _artifacts(cache_dir):
    """Every artifact of a cache directory by file name, as the canonical
    JSON of its key, task id, spec and result -- all but ``created``."""
    artifacts = {}
    for name in os.listdir(cache_dir):
        with open(os.path.join(cache_dir, name), encoding="utf-8") as handle:
            entry = json.load(handle)
        del entry["created"]
        artifacts[name] = canonical_json(entry)
    return artifacts


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("study", sorted(STUDIES))
def test_two_cold_runs_write_identical_bytes(study, backend, tmp_path):
    first_json, first_cache = _cold_run(study, backend,
                                        str(tmp_path / "first"))
    second_json, second_cache = _cold_run(study, backend,
                                          str(tmp_path / "second"))
    assert first_json == second_json

    first, second = _artifacts(first_cache), _artifacts(second_cache)
    assert first and sorted(first) == sorted(second)
    assert all(name.endswith(".json") for name in first)
    for name, entry in first.items():
        assert entry == second[name], name
