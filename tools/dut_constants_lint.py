#!/usr/bin/env python3
"""DUT-constant linter run by CI (and locally: ``python tools/dut_constants_lint.py``).

The parametric-DUT refactor made the device under test declarative data
(:class:`repro.dut.DutSpec`): the ADC model and the functional-test layer
take every device parameter from the spec threaded through their
constructors.  A module-constant read of the resolution or the nominal
common mode inside those packages would silently pin a swept parameter
back to the paper's default device -- an 8-bit variant would quantise to
10 bits somewhere in the middle of the signal chain and nothing would
crash.

This linter greps ``src/repro/adc``, ``src/repro/functional_test`` and
``src/repro/defects`` for the constant spellings the refactor eliminated:

* ``ADC_BITS`` / ``VCM_NOMINAL`` -- the legacy module constants; and
* ``2 ** 10`` / ``2**10`` / ``1 << 10`` / ``1<<10`` -- a hard-coded
  10-bit code count (use ``dut.n_codes`` / ``dut.resolution_bits``).

``src/repro/defects`` re-evaluates the ADC's signals itself (the batched
golden-trace evaluation), so it is also checked for what the model reads
from the device there:

* ``vref[16]``-style literal reference-ladder tap indices (use
  ``dut.mid_tap``, or ``vref[-1]`` for the top tap); and
* ``VDD`` imported from ``circuit.units`` (use ``dut.vdd``).

Lines inside comments are still flagged on purpose (a commented-out
constant read is a resurrection waiting to happen); a deliberate mention
-- say, in a docstring explaining this very history -- can be suppressed
with a trailing ``# dut-lint: allow``.

Exits non-zero with one ``file:line`` per offence.
"""

from __future__ import annotations

import ast
import os
import re
import sys
from typing import List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEFECTS_DIR = os.path.join("src", "repro", "defects")

LINTED_DIRS = [
    os.path.join("src", "repro", "adc"),
    os.path.join("src", "repro", "functional_test"),
    DEFECTS_DIR,
]

FORBIDDEN = [
    (re.compile(r"\bADC_BITS\b"),
     "legacy ADC_BITS constant; use dut.resolution_bits"),
    (re.compile(r"\bVCM_NOMINAL\b"),
     "legacy VCM_NOMINAL constant; use dut.common_mode"),
    (re.compile(r"\b2\s*\*\*\s*10\b"),
     "hard-coded 10-bit code count; use dut.n_codes"),
    (re.compile(r"\b1\s*<<\s*10\b"),
     "hard-coded 10-bit code count; use dut.n_codes"),
]

#: Additional patterns of :data:`DEFECTS_DIR`.
FORBIDDEN_IN_DEFECTS = [
    (re.compile(r"\bvref\[\s*\d+\s*\]"),
     "literal reference-ladder tap index; use dut.mid_tap or vref[-1]"),
    (re.compile(r"\bunits\.VDD\b"),
     "fixed supply constant; use dut.vdd"),
]

ALLOW_MARKER = "dut-lint: allow"


def _units_vdd_imports(source: str) -> List[int]:
    """Lines importing ``VDD`` from ``circuit.units`` (parenthesised,
    multi-line imports included)."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").endswith("circuit.units")
            and any(alias.name == "VDD" for alias in node.names)]


def lint_file(rel_path: str) -> List[str]:
    problems = []
    in_defects = rel_path.startswith(DEFECTS_DIR + os.sep)
    patterns = FORBIDDEN + (FORBIDDEN_IN_DEFECTS if in_defects else [])
    with open(os.path.join(REPO_ROOT, rel_path), encoding="utf-8") as handle:
        source = handle.read()
    lines = source.splitlines()
    for lineno, line in enumerate(lines, start=1):
        if ALLOW_MARKER in line:
            continue
        for pattern, why in patterns:
            if pattern.search(line):
                problems.append(f"{rel_path}:{lineno}: {why} "
                                f"({line.strip()!r})")
    if in_defects:
        for lineno in _units_vdd_imports(source):
            if ALLOW_MARKER not in lines[lineno - 1]:
                problems.append(f"{rel_path}:{lineno}: VDD imported from "
                                f"circuit.units; use dut.vdd "
                                f"({lines[lineno - 1].strip()!r})")
    return problems


def main() -> int:
    problems = []
    checked = 0
    for lint_dir in LINTED_DIRS:
        root = os.path.join(REPO_ROOT, lint_dir)
        if not os.path.isdir(root):
            problems.append(f"missing linted directory: {lint_dir}")
            continue
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name), REPO_ROOT)
                problems.extend(lint_file(rel))
                checked += 1
    for problem in problems:
        print(f"dut-lint: {problem}", file=sys.stderr)
    if not problems:
        print(f"dut-lint: {checked} files ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
