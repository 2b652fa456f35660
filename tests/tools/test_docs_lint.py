"""``tools/docs_lint.py`` flags a documented ``repro.`` name that no longer
resolves by import."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "docs_lint.py"


@pytest.fixture(scope="module")
def docs_lint():
    spec = importlib.util.spec_from_file_location("docs_lint", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_deleted_name_is_flagged(docs_lint):
    text = ("The stage map is `repro.defects.LOCAL_STAGE`.\n"
            "Its closures were `repro.defects.STAGE_DOWNSTREAM`.\n")
    assert docs_lint.check_dotted_names("docs/x.md", text) == [
        "docs/x.md:2: `repro.defects.STAGE_DOWNSTREAM` does not resolve "
        "by import"]


def test_shipped_docs_name_only_resolvable_objects(docs_lint):
    problems = []
    for rel_path in docs_lint._doc_files():
        text = (Path(docs_lint.REPO_ROOT) / rel_path).read_text(
            encoding="utf-8")
        problems += docs_lint.check_dotted_names(rel_path, text)
    assert problems == []
