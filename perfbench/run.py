#!/usr/bin/env python3
"""SymBIST study benchmark: the paper's two end-to-end runs, cold and warm.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 60 --trace 0

Every measured run is a fresh ``perfbench/study.py`` process driving the
public study path of ``repro-campaign run`` (see ``study.py``).  A run of
this script, for one workload and seed:

1. a **cold** run into an empty cache directory, then warm **replays**,
   each a fresh process against the cache the cold run wrote;
2. the workload's serial **reference**, once;
3. more cycles of step 1 while one more, as long as the last, still fits
   in ``--seconds`` counted from the start; then more replays of the last
   cache while they fit;
4. checks every cold JSON against the reference, and every replay against
   its cold run (0 executed, 100% cached, identical JSON);
5. prints the simulated statistics beside the paper's Table I, then the
   metrics, and as its last line one JSON object
   ``{"correct", "attempted", "failed", "metrics"}``.

Every set-up time (process start until the study is compiled) comes from
the cold and warm processes.  A time metric reports the run's fastest
sample, the cold wall time rebuilt from its fastest parts, and memory the
median (see ``reported``).

``--trace 1`` replaces steps 1 and 3 with one untraced cold run plus a
traced serial cold run and replay (per-layer spans from ``layers.py``),
and for ``table1`` a cold run on the shared-memory pool with the engine's
JSONL telemetry; it reports the per-layer metrics and a reconciliation of the
layer times against the engine's execute and wall time.

The listed metric names and units come from ``BENCHMARK.json``.

Load is closed-loop and batch: one study at a time from this process;
only the traced pool run uses worker processes (two).  All times are
host time.  The exit code is non-zero when any output check fails or the
program is missing.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from layers import TASK_LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Workload -> how it runs and what its cold output must equal.  The
#: reference of ``table1`` is the batched golden-trace evaluation of the
#: same study (an independent path that must be bit-identical); that of
#: ``yield-escape`` is the plain serial, unbatched study.  The traced
#: ``table1`` run adds a pool run (``trace_pool``: backend, workers) for the
#: pool layers, whose JSON must equal the serial one.
WORKLOADS = {
    "table1": {"study": "block-study", "sets": [],
               "reference": ("block-study", ["campaign.batch_size=16"]),
               "trace_pool": ("shm", 2)},
    "yield-escape": {"study": "yield-loss-study",
                     "sets": ["campaign.batch_size=16",
                              "escape.max_escape_defects=5"],
                     "reference": ("yield-loss-study",
                                   ["escape.max_escape_defects=5"])},
}

#: Warm replays per cold run.  One, so that a run holds as many cold runs
#: as it can; the time left after the last cycle goes to more replays.
N_REPLAYS = 1
#: Seconds one study process may take before it counts as failed.
CHILD_TIMEOUT = 170


def load_config():
    """Metric name -> unit of ``BENCHMARK.json``'s ``end_to_end`` and
    ``per_layer`` lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        config = json.load(handle)
    return tuple({metric["name"]: metric["unit"] for metric in config[kind]}
                 for kind in ("end_to_end", "per_layer"))


class Bench:
    """One invocation: a scratch directory and the spawned study runs."""

    def __init__(self, workload, seed, extra_sets):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.extra_sets = list(extra_sets)
        self.work = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
        os.makedirs(self.work, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.n_runs = 0
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def fresh_dir(self, label):
        self.n_runs += 1
        path = os.path.join(self.work, f"{label}-{self.n_runs}")
        os.makedirs(path)
        return path

    def spawn(self, study, sets, cache_dir, backend="serial", workers=1,
              layers=False, telemetry=None):
        """One study process; returns its stamps with ``setup_s``,
        ``wall_s`` and the loaded study ``payload``."""
        json_path = os.path.join(self.work, f"out-{self.n_runs}.json")
        argv = [sys.executable, os.path.join(HERE, "study.py"),
                "--study", study, "--seed", str(self.seed),
                "--cache-dir", cache_dir, "--json", json_path,
                "--backend", backend, "--workers", str(workers)]
        for entry in list(sets) + self.extra_sets:
            argv += ["--set", entry]
        if layers:
            argv.append("--layers")
        if telemetry:
            argv += ["--telemetry", telemetry]
        spawned = time.monotonic()
        proc = subprocess.run(argv, env=self.env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(
                f"study process failed ({proc.returncode}): {study} "
                f"{' '.join(sets)}\n{proc.stderr[-4000:]}")
        stamps = json.loads(proc.stdout.strip().splitlines()[-1])
        stamps["setup_s"] = stamps["t_compiled"] - spawned
        stamps["wall_s"] = stamps["t_written"] - spawned
        with open(json_path, "r", encoding="utf-8") as handle:
            stamps["payload"] = json.load(handle)
        os.unlink(json_path)
        engine = stamps["engine"]
        self.attempted += engine["n_tasks"]
        self.failed += engine["n_failed"] + engine["n_skipped"]
        return stamps

    def workload_run(self, cache_dir, **kwargs):
        return self.spawn(self.spec["study"], self.spec["sets"], cache_dir,
                          **kwargs)

    def reference(self):
        study, sets = self.spec["reference"]
        cache_dir = self.fresh_dir("reference")
        try:
            return self.spawn(study, sets, cache_dir)["payload"]
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    # ------------------------------------------------------------- checks
    def check(self, run, reference, label):
        """Gate one run's JSON; a mismatch fails every task of the run."""
        problems = compare_payloads(run["payload"], reference)
        if problems:
            self.failed += run["engine"]["n_tasks"]
            self.problems.extend(f"{label}: {p}" for p in problems)

    def check_replay(self, replay, cold, label):
        engine = replay["engine"]
        if engine["n_executed"] != 0 \
                or engine["n_cache_hits"] != engine["n_tasks"]:
            self.failed += engine["n_tasks"]
            self.problems.append(
                f"{label}: replay executed {engine['n_executed']} and "
                f"cached {engine['n_cache_hits']} of {engine['n_tasks']}")
            return
        self.check(replay, cold["payload"], label)


# ================================================================== checks

def _load_diff_tool():
    tools = os.path.join(ROOT, "tools")
    if tools not in sys.path:
        sys.path.insert(0, tools)
    import diff_study_json
    return diff_study_json


def deterministic_view(payload):
    """A study payload without its engine and timing fields."""
    view = {key: value for key, value in payload.items()
            if key not in ("engine", "workers")}
    if "blocks" in view:
        view["blocks"] = [{key: value for key, value in block.items()
                           if key != "timing"} for block in view["blocks"]]
    return view


def compare_payloads(candidate, reference):
    """Problems between two study payloads: ``tools/diff_study_json.py``'s
    schema and per-block comparison, then every remaining deterministic
    value (yield-loss points, escapes) compared exactly."""
    problems = _load_diff_tool().diff(candidate, reference, "run",
                                      "reference")
    if not problems and deterministic_view(candidate) \
            != deterministic_view(reference):
        problems.append("deterministic values differ outside the "
                        "per-block rows")
    return problems


# ================================================================ fidelity

def paper_table1():
    """``PAPER_TABLE1`` of ``benchmarks/bench_table1_coverage.py``, read
    without importing the pytest module; {} when it is absent."""
    import ast
    path = os.path.join(ROOT, "benchmarks", "bench_table1_coverage.py")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
    except OSError:
        return {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "PAPER_TABLE1"
                for target in node.targets):
            return ast.literal_eval(node.value)
    return {}


def simulated_statistics(payload, block_likelihood):
    """The deterministic model outputs of one study payload.  The whole-IP
    coverage stratifies the per-block L-W estimates by each block's total
    defect likelihood."""
    blocks = payload.get("blocks", [])
    mass = sum(block_likelihood[block["block"]] for block in blocks)
    stats = {"blocks": {block["block"]: {
        "n_simulated": block["n_simulated"],
        "n_detected": block["n_detected"],
        "coverage": block["coverage"],
        "ci_half_width": block["ci_half_width"]} for block in blocks}}
    stats["whole_ip"] = {
        "n_simulated": sum(b["n_simulated"] for b in blocks),
        "n_detected": sum(b["n_detected"] for b in blocks),
        "coverage": sum(b["coverage"] * block_likelihood[b["block"]]
                        for b in blocks) / mass if mass else 0.0}
    if "yield_loss" in payload:
        stats["yield_loss"] = [(point["k"], point["empirical"])
                               for point in payload["yield_loss"]]
    if "escapes" in payload:
        stats["escapes"] = {key: payload["escapes"][key] for key in
                            ("n_analyzed", "n_functional_escapes",
                             "n_benign")}
    return stats


def print_fidelity(name, seed, run):
    """The simulated statistics beside the paper's Table I (information,
    not a gate)."""
    paper = paper_table1()
    stats = simulated_statistics(run["payload"], run["block_likelihood"])
    rows = list(stats["blocks"].items())
    rows.append(("complete_ams_part", stats["whole_ip"]))
    print(f"simulated statistics ({name}, seed {seed}) beside the paper's "
          f"Table I:")
    print(f"  {'block':<22}{'#sim':>6}{'#det':>6}{'repro':>9}"
          f"{'paper':>9}{'error':>9}")
    for block, row in rows:
        cited = paper.get(block)
        value = float(cited.split("%")[0]) if cited else None
        repro = 100.0 * row["coverage"]
        print(f"  {block:<22}{row['n_simulated']:>6}{row['n_detected']:>6}"
              f"{repro:>8.2f}%"
              + (f"{value:>8.2f}%{repro - value:>+8.2f}pp"
                 if value is not None else f"{'-':>9}{'-':>9}"))
    print("  (repro whole-IP row: per-block estimates weighted by block "
          "likelihood; the paper's row is its own LWRS draw)")
    if "yield_loss" in stats:
        print("  yield loss (k, empirical): " + ", ".join(
            f"({k:g}, {value})" for k, value in stats["yield_loss"]))
    if "escapes" in stats:
        print(f"  escapes: {stats['escapes']}")


# ================================================================= metrics

def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(bench, seconds):
    """Timed cycles -- a cold run, then warm replays of its cache -- and the
    reference, within ``seconds``; returns the value and the samples of
    every end-to-end metric, and the first cold run.

    The first cycle always runs, and the reference runs after it.  Further
    cycles run while one more, as long as the last, fits before the
    deadline; the time left then goes to more replays of the last cache, so
    the replay and set-up samples spread over the whole run.
    """
    deadline = time.monotonic() + seconds
    samples = {name: [] for name in ("setup_s", "wall_s", "replay_s",
                                     "peak_rss_mb")}
    colds = []
    reference = cache_dir = None

    def replay(cold):
        run = bench.workload_run(cache_dir)
        samples["replay_s"].append(run["wall_s"])
        samples["setup_s"].append(run["setup_s"])
        bench.check_replay(run, cold, f"cold #{len(colds)} replay "
                                      f"#{len(samples['replay_s'])}")

    while True:
        began = time.monotonic()
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
        cache_dir = bench.fresh_dir("cache")
        cold = bench.workload_run(cache_dir)
        colds.append(cold)
        samples["wall_s"].append(cold["wall_s"])
        samples["setup_s"].append(cold["setup_s"])
        samples["peak_rss_mb"].append(cold["peak_rss_mb"])
        for _ in range(N_REPLAYS):
            replay(cold)
        cycle_s = time.monotonic() - began
        if reference is None:
            reference = bench.reference()
        if time.monotonic() + cycle_s > deadline:
            break
    while time.monotonic() + samples["replay_s"][-1] <= deadline:
        replay(cold)
    shutil.rmtree(cache_dir, ignore_errors=True)
    for index, cold in enumerate(colds):
        bench.check(cold, reference, f"cold #{index + 1} vs reference")
    return reported(samples, colds), samples, colds[0]


def fastest_parts(colds):
    """A cold run's wall time rebuilt from its fastest parts over the run's
    cold runs, which all execute the same tasks: the fastest set-up, the
    fastest execution of each task, and the fastest remainder (scheduling,
    cache writes, JSON emit)."""
    fastest = {}
    for cold in colds:
        for task_id, seconds in cold["engine"]["task_s"].items():
            fastest[task_id] = min(seconds, fastest.get(task_id, seconds))
    remainder = min(cold["wall_s"] - cold["setup_s"]
                    - sum(cold["engine"]["task_s"].values()) for cold in colds)
    return (min(cold["setup_s"] for cold in colds) + sum(fastest.values())
            + remainder)


def reported(samples, colds):
    """One run's value of each end-to-end metric.

    On a shared host the vCPUs run up to 2x slower for stretches of one
    second to several minutes, each vCPU on its own, with short quiet gaps.
    The median of a run follows how much of it was slowed; the fastest
    sample follows the program (timeit's rule), the more surely the shorter
    the timed unit.  So a time is the fastest sample, and the cold wall
    time, several seconds long, is rebuilt from its fastest parts.  Memory
    does not drift, so it is the median.
    """
    return {"setup_s": min(samples["setup_s"]),
            "wall_s": fastest_parts(colds),
            "replay_s": min(samples["replay_s"]),
            "peak_rss_mb": median(samples["peak_rss_mb"])}


def print_end_to_end(name, values, samples, units):
    print(f"end-to-end metrics ({name}; see reported(); host time):")
    for metric, unit in units.items():
        raw = samples[metric]
        print(f"  {metric:<12} {values[metric]:>10.4f} {unit:<3} "
              f"(n={len(raw)}, min {min(raw):.4f}, median "
              f"{median(raw):.4f}, max {max(raw):.4f})")


# ================================================================== traced

#: Units of the layer values that the traced run prints but leaves out of
#: its result line.  ``BENCHMARK.json`` lists only values measured, and
#: never 0, on both workloads; these belong to layers that only one
#: workload runs, so they read exactly 0 on every run of the other one
#: (the pool values are not measured there at all).  They go into
#: ``--record`` files, where ``compare.py`` lists them too.
PRINTED_ONLY_UNITS = {
    "core.controller.calls": "count", "core.controller.s": "s",
    "core.controller.p50_ms": "ms", "core.controller.p98_ms": "ms",
    "defects.batching.golden_traces": "count",
    "defects.batching.golden_s": "s",
    "defects.batching.evaluate_calls": "count",
    "defects.batching.evaluate_s": "s",
    "defects.batching.fallback_ratio": "ratio",
    "analysis.escape_analysis.s": "s",
    "analysis.escape_analysis.n_analyzed": "count",
    "functional_test.baseline.calls": "count",
    "functional_test.baseline.s": "s",
    "functional_test.baseline.p50_ms": "ms",
    "adc.sar_adc.convert_many.calls": "count",
    "adc.sar_adc.convert_many.samples": "count",
    "adc.sar_adc.convert_many.us_per_sample": "us",
    "analysis.yield_loss.s": "s",
    "engine.backends.ship_s": "s", "engine.backends.deserialize_s": "s",
    "engine.backends.payload_bytes_per_task": "B",
    "engine.backends.worker_busy_s": "s",
    "engine.backends.worker_idle_s": "s",
}


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _tree_bytes(path):
    return sum(os.path.getsize(os.path.join(folder, name))
               for folder, _, names in os.walk(path) for name in names)


def pool_spans(trace_path):
    """Transport and worker busy/idle from one run's JSONL telemetry.

    Busy time is the union of each worker's task spans (start to start +
    worker seconds); idle is the rest of the run window.  The telemetry's
    ``queue_wait`` is not used: it sums over tasks submitted up front.
    """
    with open(trace_path, "r", encoding="utf-8") as handle:
        events = [json.loads(line) for line in handle if line.strip()]
    started = {}
    spans = {}
    totals = {"ship": 0.0, "deserialize": 0.0, "execute": 0.0}
    window = [None, None]
    workers = 1
    for event in events:
        kind = event["type"]
        if kind == "run_started":
            window[0] = event["t"]
            workers = event["data"]["workers"]
        elif kind == "run_finished":
            window[1] = event["t"]
        elif kind == "task_started":
            started[event["task_id"]] = event["t"]
        elif kind == "task_completed":
            data = event["data"]
            for key in totals:
                totals[key] += data[key]
            begin = started[event["task_id"]]
            spans.setdefault(event["worker"], []).append(
                (begin, begin + data["worker_seconds"]))
    busy = 0.0
    for intervals in spans.values():
        end = None
        for begin, finish in sorted(intervals):
            if end is None or begin >= end:
                busy += finish - begin
                end = finish
            elif finish > end:
                busy += finish - end
                end = finish
    wall = window[1] - window[0]
    return {"wall": wall, "workers": workers, "busy": busy,
            "idle": wall * workers - busy, **totals}


def traced(bench):
    """The ``--trace 1`` run: per-layer metrics and the reconciliation."""
    spec = bench.spec
    reference = bench.reference()
    cache_dir = bench.fresh_dir("cache")
    untraced = bench.workload_run(cache_dir)
    shutil.rmtree(cache_dir, ignore_errors=True)
    bench.check(untraced, reference, "untraced cold vs reference")

    # Model and engine layers, wrapped in-process.
    cache_dir = bench.fresh_dir("cache")
    cold = bench.workload_run(cache_dir, layers=True)
    put_bytes = _tree_bytes(cache_dir)
    replay = bench.workload_run(cache_dir, layers=True)
    shutil.rmtree(cache_dir, ignore_errors=True)
    bench.check(cold, untraced["payload"], "traced cold vs untraced")
    bench.check_replay(replay, cold, "traced replay")

    layers = cold["layers"]["layers"]
    replay_layers = replay["layers"]["layers"]
    simulator, batch = layers["defects.simulator"], \
        layers["defects.simulator.batch"]
    n_defects = simulator["calls"] + batch["items"]
    convert = layers["adc.sar_adc.convert_many"]
    get = replay_layers["engine.cache.get"]
    engine = cold["engine"]
    metrics = {
        "import.s": cold["import_s"],
        "engine.spec.compile_s": cold["compile_s"],
        "engine.spec.n_tasks": cold["n_tasks"],
        "dut.build_s": layers["dut.build"]["s"],
        "core.calibration.s": layers["core.calibration"]["s"],
        "core.calibration.instance_p50_ms":
            layers["core.calibration"]["p50_ms"],
        "core.controller.calls": layers["core.controller"]["calls"],
        "core.controller.s": layers["core.controller"]["s"],
        "core.controller.p50_ms": layers["core.controller"]["p50_ms"],
        "core.controller.p98_ms": layers["core.controller"]["p98_ms"],
        "defects.simulator.s": simulator["s"] + batch["s"],
        "defects.simulator.defects_per_s": _ratio(
            n_defects, simulator["s"] + batch["s"]),
        "defects.batching.golden_traces":
            layers["defects.batching.golden"]["calls"],
        "defects.batching.golden_s": layers["defects.batching.golden"]["s"],
        "defects.batching.evaluate_calls":
            layers["defects.batching.evaluate"]["calls"],
        "defects.batching.evaluate_s":
            layers["defects.batching.evaluate"]["s"],
        "defects.batching.fallback_ratio": _ratio(
            cold["layers"]["fallbacks"], batch["items"]),
        "analysis.escape_analysis.s": layers["analysis.escape_analysis"]["s"],
        "analysis.escape_analysis.n_analyzed":
            layers["analysis.escape_analysis"]["items"],
        "functional_test.baseline.calls":
            layers["functional_test.baseline"]["calls"],
        "functional_test.baseline.s": layers["functional_test.baseline"]["s"],
        "functional_test.baseline.p50_ms":
            layers["functional_test.baseline"]["p50_ms"],
        "adc.sar_adc.convert_many.calls": convert["calls"],
        "adc.sar_adc.convert_many.samples": convert["items"],
        "adc.sar_adc.convert_many.us_per_sample": 1e6 * _ratio(
            convert["s"], convert["items"]),
        "analysis.yield_loss.s": layers["analysis.yield_loss"]["s"],
        "engine.cache.put.calls": layers["engine.cache.put"]["calls"],
        "engine.cache.put.s": layers["engine.cache.put"]["s"],
        "engine.cache.put.bytes": put_bytes,
        "engine.cache.get.calls": get["calls"],
        "engine.cache.get.hits": replay["layers"]["cache_hits"],
        "engine.cache.get.s": get["s"],
        "engine.cache.get.hit_ratio": _ratio(replay["layers"]["cache_hits"],
                                             get["calls"]),
        "engine.executor.tasks": engine["n_tasks"],
        "engine.executor.execute_s": engine["execute_s"],
        "engine.executor.overhead_s": engine["wall_s"] - engine["execute_s"],
        "engine.executor.replay_overhead_s":
            replay["engine"]["wall_s"] - replay["engine"]["execute_s"],
        "engine.cli.emit_s": cold["emit_s"],
        "trace.overhead_frac": _ratio(cold["wall_s"], untraced["wall_s"]),
    }
    print_reconciliation(bench.name, cold, layers)

    if "trace_pool" in spec:
        # Pool layers: the engine's own telemetry from a pool run.
        backend, workers = spec["trace_pool"]
        cache_dir = bench.fresh_dir("cache")
        trace_path = os.path.join(bench.work, f"trace-{bench.n_runs}.jsonl")
        pool = bench.spawn(spec["study"], spec["sets"], cache_dir,
                           backend=backend, workers=workers,
                           telemetry=trace_path)
        shutil.rmtree(cache_dir, ignore_errors=True)
        bench.check(pool, untraced["payload"], "pool vs serial")
        spans = pool_spans(trace_path)
        metrics.update({
            "engine.backends.ship_s": spans["ship"],
            "engine.backends.deserialize_s": spans["deserialize"],
            "engine.backends.payload_bytes_per_task":
                pool["payload_bytes_per_task"],
            "engine.backends.worker_busy_s": spans["busy"],
            "engine.backends.worker_idle_s": spans["idle"],
        })
        capacity = spans["wall"] * spans["workers"]
        other = spans["busy"] - spans["execute"] - spans["deserialize"]
        print(f"reconcile {bench.name} pool ({backend}, {workers} workers): "
              f"engine wall {spans['wall']:.4f} s x {spans['workers']} = "
              f"{capacity:.4f} s = execute {spans['execute']:.4f} + "
              f"deserialize {spans['deserialize']:.4f} + other worker-side "
              f"{other:+.4f} + idle {spans['idle']:.4f} (idle is the "
              f"complement of the span union); result ship latency, "
              f"summed over tasks, {spans['ship']:.4f} s")
    bench.traced_cold = cold
    return metrics


def print_reconciliation(name, cold, layers):
    engine = cold["engine"]
    task_self = cold["layers"]["task_self_s"]
    execute = engine["execute_s"]
    print(f"reconcile {name} (serial traced cold run):")
    print(f"  layer self time in tasks {task_self:.4f} s of task execute "
          f"{execute:.4f} s ({100 * _ratio(task_self, execute):.1f}%); "
          f"unattributed {execute - task_self:+.4f} s")
    for layer, row in sorted(layers.items(),
                             key=lambda item: -item[1]["self_s"]):
        if row["calls"] or row["self_s"]:
            where = "task" if layer in TASK_LAYERS else "parent"
            print(f"    {layer:<28} self {row['self_s']:>9.4f} s  "
                  f"calls {row['calls']:<6} ({where})")
    cache_s = layers["engine.cache.get"]["s"] + layers["engine.cache.put"]["s"]
    wall = engine["wall_s"]
    print(f"  engine wall {wall:.4f} s x 1 worker: execute {execute:.4f} + "
          f"cache get/put {cache_s:.4f} + idle 0 = {execute + cache_s:.4f} "
          f"s; unattributed scheduler time {wall - execute - cache_s:+.4f} s")
    outside = cold["wall_s"] - wall
    print(f"  process wall {cold['wall_s']:.4f} s: set-up "
          f"{cold['setup_s']:.4f} (import {cold['import_s']:.4f}, compile "
          f"{cold['compile_s']:.4f}) + engine {wall:.4f} + emit "
          f"{cold['emit_s']:.4f}; unattributed "
          f"{outside - cold['setup_s'] - cold['emit_s']:+.4f} s")


# ==================================================================== main

def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="SymBIST study benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="extra study override for every run of the "
                             "workload and its reference (self-test)")
    parser.add_argument("--record", default=None, metavar="FILE.jsonl",
                        help="append {workload, seed, trace, result} and "
                             "the raw end-to-end samples (with --trace 1, "
                             "every printed layer value instead) to this "
                             "file (input of compare.py)")
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro", "engine")) or \
            not os.path.isfile(os.path.join(ROOT, "tools",
                                            "diff_study_json.py")):
        print(f"perfbench: no SymBIST source tree under {ROOT} "
              f"(expected src/repro and tools/diff_study_json.py)",
              file=sys.stderr)
        return 2
    end_to_end_units, per_layer_units = load_config()
    bench = Bench(args.workload, args.seed, args.set)
    try:
        if args.trace:
            layer_values = traced(bench)
            printed = {name: {"value": layer_values[name], "unit": unit}
                       for name, unit in {**per_layer_units,
                                          **PRINTED_ONLY_UNITS}.items()
                       if name in layer_values}
            metrics = {name: printed[name] for name in per_layer_units}
            first_cold = bench.traced_cold
        else:
            values, samples, first_cold = end_to_end(bench, args.seconds)
            print_end_to_end(args.workload, values, samples,
                             end_to_end_units)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in end_to_end_units.items()}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()
    print_fidelity(args.workload, args.seed, first_cold)
    for problem in bench.problems:
        print(f"perfbench: output check failed: {problem}", file=sys.stderr)
    failed_ratio = _ratio(bench.failed, bench.attempted)
    print(f"  {'failed_ratio':<12} {failed_ratio:>10.4f} ratio "
          f"({bench.failed} of {bench.attempted} tasks attempted)")
    if args.trace:
        for name, metric in printed.items():
            note = "" if name in per_layer_units else "  (printed only)"
            print(f"  {name:<40} {metric['value']:>14.6g} "
                  f"{metric['unit']}{note}")
    result = {"correct": not bench.problems and bench.failed == 0,
              "attempted": bench.attempted, "failed": bench.failed,
              "metrics": metrics}
    if args.record:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "result": result}
        if args.trace:
            record["layers"] = printed
        else:
            record["samples"] = samples
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
