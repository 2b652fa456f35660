#!/usr/bin/env python3
"""Diff two campaign-JSON payloads: ``diff_study_json.py A.json B.json``.

Checks that two ``repro-campaign run <study> --json`` payloads of the same
study under one root seed agree: the same top-level and per-block schema,
and exactly the same deterministic values -- the root seed and ``k``, the
window deltas, the yield-loss points, the escape analysis and the per-block
numbers, per variant for a variant sweep.  Use it to compare runs that must
be bit-identical: serial against a process pool, batch sizes, a cache
replay, or a parent checkout against a change.  Engine/timing values (wall
clock, tasks/s, worker counts) legitimately differ between runs and are not
compared.

Exits non-zero with one line per mismatch.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List

#: Payload (or per-variant fragment) keys whose values are deterministic
#: under a fixed root seed.
DETERMINISTIC_KEYS = [
    "dut", "variant", "seed", "k", "deltas", "yield_loss", "escapes",
]

#: Per-block keys whose values are deterministic under a fixed root seed.
DETERMINISTIC_BLOCK_KEYS = [
    "block", "n_defects", "n_simulated", "n_detected", "n_escaped",
    "coverage", "ci_half_width", "dut_fingerprint", "variant",
]


def value_diffs(path: str, a: Any, b: Any) -> List[str]:
    """One line per differing leaf of two JSON values, named by its path
    (``escapes.n_benign``, ``yield_loss[2].empirical``)."""
    if a == b:
        return []
    if isinstance(a, dict) and isinstance(b, dict) and set(a) == set(b):
        return [line for key in a
                for line in value_diffs(f"{path}.{key}", a[key], b[key])]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [line for index, (x, y) in enumerate(zip(a, b))
                for line in value_diffs(f"{path}[{index}]", x, y)]
    return [f"{path} differs: {a!r} vs {b!r}"]


def diff(a: Dict[str, Any], b: Dict[str, Any],
         a_name: str, b_name: str) -> List[str]:
    problems = []
    if set(a) != set(b):
        problems.append(
            f"top-level keys differ: {a_name} has {sorted(set(a) - set(b))} "
            f"extra, {b_name} has {sorted(set(b) - set(a))} extra")
    for key in DETERMINISTIC_KEYS:
        problems.extend(value_diffs(key, a.get(key), b.get(key)))
    # Multi-variant payloads: the per-variant fragments carry the same
    # shape as a single-device payload; diff them pairwise by label.
    variants_a = a.get("variants")
    variants_b = b.get("variants")
    if isinstance(variants_a, list) or isinstance(variants_b, list):
        variants_a, variants_b = variants_a or [], variants_b or []
        names_a = [v.get("variant") for v in variants_a]
        names_b = [v.get("variant") for v in variants_b]
        if names_a != names_b:
            problems.append(f"variant labels differ: {names_a} vs {names_b}")
            return problems
        for fragment_a, fragment_b in zip(variants_a, variants_b):
            label = fragment_a.get("variant")
            problems.extend(
                f"variant {label}: {problem}"
                for problem in diff(fragment_a, fragment_b, a_name, b_name))
        return problems
    blocks_a = a.get("blocks", [])
    blocks_b = b.get("blocks", [])
    if len(blocks_a) != len(blocks_b):
        problems.append(
            f"block counts differ: {len(blocks_a)} vs {len(blocks_b)}")
        return problems
    for index, (block_a, block_b) in enumerate(zip(blocks_a, blocks_b)):
        label = block_a.get("block", f"#{index}")
        if set(block_a) != set(block_b):
            problems.append(f"block {label}: per-block keys differ: "
                            f"{sorted(set(block_a) ^ set(block_b))}")
            continue
        for key in DETERMINISTIC_BLOCK_KEYS:
            if block_a.get(key) != block_b.get(key):
                problems.append(
                    f"block {label}: {key} differs: "
                    f"{block_a.get(key)!r} vs {block_b.get(key)!r}")
    return problems


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    payloads = []
    for path in argv:
        with open(path, "r", encoding="utf-8") as handle:
            payloads.append(json.load(handle))
    problems = diff(payloads[0], payloads[1], argv[0], argv[1])
    for problem in problems:
        print(f"diff-study-json: {problem}", file=sys.stderr)
    if not problems:
        print(f"diff-study-json: {argv[0]} == {argv[1]} "
              f"(schema + deterministic values)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
