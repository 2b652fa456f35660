#!/usr/bin/env python3
"""Compare two result sets of the benchmark: parent and change.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 60 \\
        --trace 0 --record parent.jsonl        # on the parent commit
    python3 perfbench/run.py ... --record change.jsonl   # on the change
    python3 perfbench/compare.py parent.jsonl change.jsonl

Each line of a result set is one run (``--record``).  For every
end-to-end metric and workload the verdict is, with the metric's bound
from ``BENCHMARK.json``:

* **improved** -- at least ten pairs (runs of the two sides with the same
  seed), the change better in at least nine tenths of them (ties count for
  neither), and the medians apart by more than the parent's interquartile
  distance;
* **regressed** -- the change's median worse than the parent's by more than
  the bound (as a share of the parent's median);
* **unresolved** -- otherwise, when the parent's own interquartile spread
  is wider than the bound and not every change run beats every parent run;
* **unchanged** -- otherwise.

Every layer value of the ``--trace 1`` runs -- the ``per_layer`` metrics
and the values printed beside them -- is listed as medians, without a
verdict.  Exits 1 when any pairing regressed.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """``{(trace, workload): {seed: metrics}}`` of one result set; the
    metrics of a traced run are all its recorded layer values."""
    runs = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                key = (record["trace"], record["workload"])
                runs.setdefault(key, {})[record["seed"]] = record.get(
                    "layers", record["result"]["metrics"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, better, bound):
    """``(verdict, detail)`` for one metric of one workload; ``parent`` and
    ``change`` map seed -> value."""
    def beats(a, b):
        return a < b if better == "lower" else a > b

    p_values, c_values = list(parent.values()), list(change.values())
    p_med, c_med = statistics.median(p_values), statistics.median(c_values)
    q1, q3 = quartiles(p_values)
    seeds = sorted(set(parent) & set(change))
    wins = sum(beats(change[s], parent[s]) for s in seeds)
    detail = (f"parent {p_med:.4g} [{q1:.4g}, {q3:.4g}] n={len(p_values)}; "
              f"change {c_med:.4g} n={len(c_values)}; "
              f"change better in {wins}/{len(seeds)} pairs")
    if len(seeds) >= 10 and wins >= 0.9 * len(seeds) \
            and abs(c_med - p_med) > q3 - q1 and beats(c_med, p_med):
        return "improved", detail
    if beats(p_med, c_med) and abs(c_med - p_med) > bound * abs(p_med):
        return "regressed", detail
    if (q3 - q1) > bound * abs(p_med) and not all(
            beats(c, p) for c in c_values for p in p_values):
        return "unresolved", detail
    return "unchanged", detail


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        config = json.load(handle)
    parent, change = load(argv[0]), load(argv[1])
    regressed = False
    for metric in config["end_to_end"]:
        for workload in config["workloads"]:
            key = (0, workload["name"])
            p_runs, c_runs = parent.get(key, {}), change.get(key, {})
            name = metric["name"]
            p = {s: m[name]["value"] for s, m in p_runs.items() if name in m}
            c = {s: m[name]["value"] for s, m in c_runs.items() if name in m}
            if not p or not c:
                print(f"{name:<12} {workload['name']:<14} unresolved   "
                      f"(no runs on one side)")
                continue
            result, detail = verdict(p, c, metric["better"], metric["bound"])
            regressed |= result == "regressed"
            print(f"{name:<12} {workload['name']:<14} {result:<12} {detail}")
    for workload in config["workloads"]:
        key = (1, workload["name"])
        sides = (parent.get(key, {}), change.get(key, {}))
        units = {name: metric["unit"] for runs in sides
                 for metrics in runs.values()
                 for name, metric in metrics.items()}
        for name, unit in units.items():
            medians = []
            for runs in sides:
                values = [m[name]["value"] for m in runs.values()
                          if name in m]
                medians.append(f"{statistics.median(values):.4g}"
                               if values else "-")
            print(f"  {name:<40} {workload['name']:<14} parent "
                  f"{medians[0]:>10} change {medians[1]:>10} {unit}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
