#!/usr/bin/env python3
"""Documentation linter run by CI (and locally: ``python tools/docs_lint.py``).

Checks, over ``README.md`` and ``docs/*.md``:

1. the required documentation files exist;
2. every relative markdown link ``[text](target)`` resolves to a file in the
   repository (anchors are stripped; external ``scheme://`` links and bare
   anchors are ignored);
3. every fenced help block annotated with ``<!-- verify-help: ARGS -->``
   matches the real output of ``repro-campaign ARGS``.  The comparison is
   token-based (whitespace-insensitive), so argparse line-wrapping
   differences between Python versions do not produce false alarms while
   any added/removed/renamed option still fails the check;
4. every ``repro.``-dotted name in backticks, such as
   ``repro.defects.LOCAL_STAGE``, resolves: its longest importable module
   prefix is imported and the rest of the name is looked up on it,
   attribute by attribute.

Exits non-zero with one line per problem.
"""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
from typing import List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

REQUIRED_FILES = [
    "README.md",
    "docs/architecture.md",
    "docs/engine.md",
    "docs/cli.md",
    "docs/service.md",
]

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HELP_MARKER_RE = re.compile(r"<!--\s*verify-help:\s*(.*?)\s*-->")
FENCE_RE = re.compile(r"^```")
DOTTED_NAME_RE = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`")


def _doc_files() -> List[str]:
    files = [name for name in REQUIRED_FILES
             if os.path.exists(os.path.join(REPO_ROOT, name))]
    docs_dir = os.path.join(REPO_ROOT, "docs")
    if os.path.isdir(docs_dir):
        for name in sorted(os.listdir(docs_dir)):
            rel = os.path.join("docs", name)
            if name.endswith(".md") and rel not in files:
                files.append(rel)
    return files


def check_required_files() -> List[str]:
    return [f"missing required documentation file: {name}"
            for name in REQUIRED_FILES
            if not os.path.exists(os.path.join(REPO_ROOT, name))]


def check_links(rel_path: str, text: str) -> List[str]:
    problems = []
    base = os.path.dirname(os.path.join(REPO_ROOT, rel_path))
    for lineno, line in enumerate(text.splitlines(), start=1):
        for target in LINK_RE.findall(line):
            if "://" in target or target.startswith(("mailto:", "#")):
                continue
            resolved = os.path.normpath(
                os.path.join(base, target.split("#", 1)[0]))
            if not os.path.exists(resolved):
                problems.append(
                    f"{rel_path}:{lineno}: broken link target {target!r}")
    return problems


def _help_blocks(text: str) -> List[Tuple[int, str, str]]:
    """``(lineno, args, block_text)`` for every annotated help block."""
    blocks = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        marker = HELP_MARKER_RE.search(lines[i])
        if marker:
            args, start = marker.group(1), i + 1
            # The fenced block must open on the next non-empty line.
            while start < len(lines) and not lines[start].strip():
                start += 1
            if start >= len(lines) or not FENCE_RE.match(lines[start]):
                blocks.append((i + 1, args, None))
                i += 1
                continue
            body = []
            j = start + 1
            while j < len(lines) and not FENCE_RE.match(lines[j]):
                body.append(lines[j])
                j += 1
            blocks.append((i + 1, args, "\n".join(body)))
            i = j
        i += 1
    return blocks


def check_help_snippets(rel_path: str, text: str) -> List[str]:
    problems = []
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.path.join(REPO_ROOT, "src")
               + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for lineno, args, block in _help_blocks(text):
        if block is None:
            problems.append(
                f"{rel_path}:{lineno}: verify-help marker is not followed "
                f"by a fenced code block")
            continue
        command = [sys.executable, "-m", "repro.engine.cli"] + args.split()
        proc = subprocess.run(command, capture_output=True, text=True,
                              env=env, cwd=REPO_ROOT)
        # argparse --help exits 0; any other status means the args are stale.
        if proc.returncode != 0:
            detail = (proc.stderr.strip().splitlines() or ["<no stderr>"])[-1]
            problems.append(
                f"{rel_path}:{lineno}: `repro-campaign {args}` exited "
                f"{proc.returncode}: {detail}")
            continue
        if proc.stdout.split() != block.split():
            problems.append(
                f"{rel_path}:{lineno}: help snippet for "
                f"`repro-campaign {args}` is out of date; regenerate with "
                f"`COLUMNS=80 PYTHONPATH=src python -m repro.engine.cli "
                f"{args}`")
    return problems


def _resolves(name: str) -> bool:
    """Whether ``name`` is a module, or an attribute path on one."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def check_dotted_names(rel_path: str, text: str) -> List[str]:
    src = os.path.join(REPO_ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    return [f"{rel_path}:{lineno}: `{name}` does not resolve by import"
            for lineno, line in enumerate(text.splitlines(), start=1)
            for name in DOTTED_NAME_RE.findall(line)
            if not _resolves(name)]


def main() -> int:
    problems = check_required_files()
    for rel_path in _doc_files():
        with open(os.path.join(REPO_ROOT, rel_path),
                  encoding="utf-8") as handle:
            text = handle.read()
        problems.extend(check_links(rel_path, text))
        problems.extend(check_help_snippets(rel_path, text))
        problems.extend(check_dotted_names(rel_path, text))
    for problem in problems:
        print(f"docs-lint: {problem}", file=sys.stderr)
    if not problems:
        print(f"docs-lint: {len(_doc_files())} files ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
