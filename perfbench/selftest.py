#!/usr/bin/env python3
"""Fast self-test of the benchmark (about 25 s on two CPUs).

    python3 perfbench/selftest.py

1. Runs ``run.py`` on every workload, untraced and traced, with ``--set``
   overrides that shrink the study to a tiny calibration and campaign, and
   checks that the last line names every metric of ``BENCHMARK.json`` with
   its unit and reports the outputs correct, and that the ``--record`` line
   holds the result and, for traced runs, the printed-only layer values.
2. Doctors a real study JSON and checks that the correctness gate trips,
   while the untouched JSON passes.
3. Checks the compare command's verdicts on synthetic result sets.
4. Checks that the benchmark exits non-zero, printing no result, in a
   directory holding only ``BENCHMARK.json`` and the benchmark.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402

#: The ``--record`` file of the metric checks.
RECORD = os.path.join(ROOT, ".perfbench-work", "selftest-record.jsonl")
TINY = ["calibrate.n_monte_carlo=4", "campaign.samples=3",
        "campaign.blocks=rs_latch,vcm_generator"]
#: Workload -> the overrides that shrink it.
TINY_SETS = {"table1": TINY,
             "yield-escape": TINY + ["escape.max_escape_defects=2"]}


def _fail(message):
    print(f"selftest: FAIL: {message}")
    sys.exit(1)


def _bench(argv, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench",
                                                        "run.py")] + argv,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def check_metrics(config):
    for workload in config["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            argv = ["--workload", workload["name"], "--seed", "5",
                    "--seconds", "1", "--trace", str(trace),
                    "--record", RECORD]
            for entry in TINY_SETS[workload["name"]]:
                argv += ["--set", entry]
            proc = _bench(argv)
            if proc.returncode != 0:
                _fail(f"{workload['name']} trace {trace} exited "
                      f"{proc.returncode}: {proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"} \
                    or not result["correct"] or result["attempted"] < 1:
                _fail(f"{workload['name']} trace {trace}: {result}")
            expected = {m["name"]: m["unit"] for m in config[kind]}
            printed = {name: metric["unit"]
                       for name, metric in result["metrics"].items()}
            if printed != expected:
                _fail(f"{workload['name']} trace {trace}: metrics "
                      f"{sorted(set(printed) ^ set(expected))} differ")
            if trace == 0 and "failed_ratio" not in proc.stdout:
                _fail("failed_ratio not printed")
            with open(RECORD, "r", encoding="utf-8") as handle:
                recorded = json.loads(handle.read().splitlines()[-1])
            if recorded["result"] != result or (trace == 1 and not (
                    set(expected) | {"analysis.escape_analysis.s",
                                     "core.controller.s"})
                    <= set(recorded["layers"])):
                _fail(f"{workload['name']} trace {trace}: the --record line "
                      f"lacks the result or the printed-only layer values")
            print(f"selftest: {workload['name']} trace {trace}: "
                  f"{len(printed)} metrics with units, correct")


def check_gate():
    bench = run.Bench("yield-escape", 5, TINY_SETS["yield-escape"])
    try:
        cold = bench.workload_run(bench.fresh_dir("cache"))
    finally:
        bench.close()
    payload = cold["payload"]
    if run.compare_payloads(copy.deepcopy(payload), payload):
        _fail("an untouched study JSON trips the gate")
    doctored = copy.deepcopy(payload)
    doctored["blocks"][0]["n_detected"] += 1
    if not run.compare_payloads(doctored, payload):
        _fail("a doctored per-block count passes the gate")
    doctored = copy.deepcopy(payload)
    doctored["escapes"]["n_benign"] += 1
    if not run.compare_payloads(doctored, payload):
        _fail("a doctored escape count passes the gate")
    timing = copy.deepcopy(payload)
    timing["engine"] = "different engine summary"
    if run.compare_payloads(timing, payload):
        _fail("an engine-only difference trips the gate")
    print("selftest: correctness gate trips on doctored JSON only")


def check_compare():
    parent = {seed: 10.0 + 0.01 * seed for seed in range(10)}
    cases = [({s: v * 0.5 for s, v in parent.items()}, "improved"),
             ({s: v * 1.5 for s, v in parent.items()}, "regressed"),
             ({s: v * 1.01 for s, v in parent.items()}, "unchanged")]
    for change, expected in cases:
        got, detail = compare.verdict(parent, change, "lower", 0.1)
        if got != expected:
            _fail(f"compare verdict {got}, expected {expected}: {detail}")
    noisy = {seed: 10.0 * (1 + (seed % 2)) for seed in range(10)}
    got, _ = compare.verdict(noisy, dict(noisy), "lower", 0.1)
    if got != "unresolved":
        _fail(f"compare verdict on a noisy parent is {got}")
    print("selftest: compare verdicts as expected")


def check_bare_directory():
    bare = os.path.join(ROOT, ".perfbench-work", f"bare-{os.getpid()}")
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(["--workload", "table1", "--seed", "1",
                       "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        _fail(f"bare directory: exit {proc.returncode}, "
              f"stdout {proc.stdout!r}")
    print("selftest: bare directory exits non-zero without a result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        config = json.load(handle)
    check_gate()
    check_compare()
    check_bare_directory()
    try:
        check_metrics(config)
    finally:
        if os.path.exists(RECORD):
            os.unlink(RECORD)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
