"""One study run in a fresh process, timed from the outside.

This is the process the benchmark entry point (``run.py``) spawns for every
cold run, warm replay and reference run.  It drives the public path that
``repro-campaign run`` takes -- ``load_study`` -> ``StudySpec.override``
-> ``build_study`` -> ``StudyPlan.run`` -> ``study_payload`` -> JSON
written with the CLI's own formatting -- and prints, as its last stdout
line, one JSON object of ``time.monotonic()`` stamps and engine counts.
``time.monotonic()`` is system-wide on Linux, so ``run.py`` subtracts its
own spawn stamp to get times "from process start".

    python3 perfbench/study.py --study block-study --seed 1 \\
        --cache-dir CACHE --json OUT.json [--set campaign.batch_size=16] \\
        [--backend shm --workers 2] [--layers] \\
        [--telemetry TRACE.jsonl]

``--layers`` wraps the model and engine layers (see ``layers.py``) and
adds their counts and times to the output; ``--telemetry`` attaches a
``JsonlTraceSink`` and measures pool payload bytes.  Neither changes the
study JSON.
"""

import argparse
import json
import resource
import sys
import time


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--study", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE")
    parser.add_argument("--backend", choices=("serial", "shm"),
                        default="serial")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--json", dest="json_path", required=True)
    parser.add_argument("--layers", action="store_true")
    parser.add_argument("--telemetry", default=None)
    return parser.parse_args(argv)


def _assignments(entries):
    """``--set`` entries as spec overrides, values parsed as JSON when they
    can be (the CLI's own rule)."""
    overrides = {}
    for entry in entries:
        key, _, raw = entry.partition("=")
        try:
            overrides[key] = json.loads(raw)
        except ValueError:
            overrides[key] = raw
    return overrides


def main(argv):
    args = _parse_args(argv)
    t_import = time.monotonic()
    from repro.engine import (JsonlTraceSink, ResultCache, SerialBackend,
                              SharedMemoryBackend, TelemetryBus, build_study,
                              load_study)
    from repro.engine.cli import study_payload
    t_imported = time.monotonic()
    tracer = None
    if args.layers:
        from layers import LayerTracer
        tracer = LayerTracer()
        tracer.install()

    spec = load_study(args.study).override(
        {"seed": args.seed, **_assignments(args.set)})
    plan = build_study(spec)
    t_compiled = time.monotonic()
    out = {"t_compiled": t_compiled, "import_s": t_imported - t_import,
           "compile_s": t_compiled - t_imported,
           "n_tasks": len(plan.pipeline)}
    if args.backend == "shm":
        backend = SharedMemoryBackend(max_workers=args.workers,
                                      measure_payload=bool(args.telemetry))
    else:
        backend = SerialBackend()
    telemetry = TelemetryBus([JsonlTraceSink(args.telemetry)]) \
        if args.telemetry else None
    try:
        outcome = plan.run(backend=backend,
                           cache=ResultCache(args.cache_dir,
                                             namespace="calibration"),
                           telemetry=telemetry)
    finally:
        if telemetry is not None:
            telemetry.close()
    t_ran = time.monotonic()
    payload = study_payload(spec, plan, outcome, workers=args.workers)
    with open(args.json_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    t_written = time.monotonic()

    report = outcome.report
    out.update({
        "t_ran": t_ran, "t_written": t_written,
        "emit_s": t_written - t_ran,
        "engine": {"n_tasks": report.n_tasks,
                   "n_executed": report.n_executed,
                   "n_cache_hits": report.n_cache_hits,
                   "n_failed": report.n_failed,
                   "n_skipped": report.n_skipped,
                   "wall_s": report.wall_time,
                   "execute_s": sum(report.task_durations.values()),
                   "task_s": dict(report.task_durations)},
        # The timed runs are serial: this process is the whole run.
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "block_likelihood": {block: universe.total_likelihood
                             for block, universe
                             in plan.block_universes.items()}})
    payload_report = getattr(backend, "last_payload", None)
    if payload_report is not None:
        out["payload_bytes_per_task"] = payload_report.per_task_bytes
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
