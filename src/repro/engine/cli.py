"""``repro-campaign`` -- run calibrations and defect campaigns from the shell.

The command line drives the heavyweight workloads of the reproduction
through the campaign engine, with sharded workers and a persistent artifact
cache::

    repro-campaign run examples/studies/block_study.toml --workers 4
    repro-campaign run block-study --workers 4 --json table1.json
    repro-campaign run yield-loss-study --set campaign.samples=40
    repro-campaign run calibrate-then-campaign --cache-dir .cache
    repro-campaign calibrate --monte-carlo 100 --workers 4 --cache-dir .cache
    repro-campaign cache stats --cache-dir .cache
    repro-campaign warehouse index .cache --db results.sqlite
    repro-campaign warehouse query per-block-coverage --db results.sqlite

``run`` is the study entry point: it loads a declarative study spec (a
TOML/JSON document, or the name of a canned study -- see ``docs/studies.md``
and ``examples/studies/``), applies ``--set stage.param=value`` overrides,
compiles it against the stage registry and executes the whole study as one
dependency-aware task graph.  The canned studies are
``calibrate-then-campaign``, ``block-study`` (per-block window calibration +
every block's defect campaign + per-block reductions; Table I in one engine
run) and ``yield-loss-study`` (calibrate -> campaign extended with the
yield-loss sweep and the functional escape analysis).  ``calibrate`` runs
the window calibration alone, as a ``calibrate`` + ``windows`` study;
``cache`` inspects and garbage-collects a cache directory; ``warehouse`` maintains and queries a
SQLite index of the completed results (``--warehouse DB`` on any workload
subcommand keeps it up to date as runs finish).

Every study emits the same per-block JSON schema, with the single engine
report of the run under the top-level ``engine`` key.

``--workers 1`` (the default) executes serially; any higher count runs the
work on the process pool (``--backend shm``, alias ``multiprocess``) with
byte-identical results.  The pool ships the campaign context (the
behavioral ADC, windows, universe) to the workers once through a
shared-memory segment; ``--mp-context`` picks the worker start method (fork,
spawn or forkserver).  ``--cache-dir`` makes repeated runs near-free: every
defect batch's records and every per-sample residual set is stored as a
content-addressed JSON artifact, optionally bounded by
``--cache-max-bytes`` / ``--cache-max-age`` LRU eviction.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

from . import console


def _package_version() -> str:
    """The installed package version, falling back to the source tree's."""
    try:
        from importlib.metadata import PackageNotFoundError, version
    except ImportError:  # pragma: no cover (python < 3.8)
        PackageNotFoundError, version = Exception, None
    if version is not None:
        try:
            return version("symbist-repro")
        except PackageNotFoundError:
            pass
    from .. import __version__
    return __version__


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value!r}")
    return parsed


def _build_backend(args: argparse.Namespace):
    from . import SerialBackend, SharedMemoryBackend
    choice = getattr(args, "backend", None)
    if choice == "serial" or (choice is None and args.workers <= 1):
        return SerialBackend()
    # "shm" and its alias "multiprocess" name the one process-pool backend.
    return SharedMemoryBackend(max_workers=max(args.workers, 1),
                               mp_context=getattr(args, "mp_context", None))


def _build_cache(args: argparse.Namespace, namespace: str):
    from . import ResultCache
    if args.cache_dir is None:
        return None
    return ResultCache(args.cache_dir, namespace=namespace,
                       max_bytes=args.cache_max_bytes,
                       max_age=args.cache_max_age)


def _add_engine_arguments(parser: argparse.ArgumentParser,
                          seeded: bool = False) -> None:
    """Execution/caching options shared by every workload subcommand.

    ``seeded=True`` adds the calibration knobs of ``calibrate`` (``--seed``,
    ``--monte-carlo``, ``--k``) that the `run` subcommand takes as spec
    entries / ``--set`` overrides.
    """
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (1 = serial; results are "
                             "identical for any value)")
    parser.add_argument("--backend", choices=("serial", "multiprocess", "shm"),
                        default=None,
                        help="execution backend (default: serial when "
                             "--workers 1, shm otherwise); shm is the process "
                             "pool, which ships the campaign context once via "
                             "shared memory, and multiprocess is its alias")
    parser.add_argument("--mp-context",
                        choices=("fork", "spawn", "forkserver"), default=None,
                        help="worker start method of the pool backend "
                             "(default: the platform default)")
    parser.add_argument("--cache-dir", default=None,
                        help="directory of the content-addressed result "
                             "cache; omit to disable caching")
    parser.add_argument("--cache-max-bytes", type=int, default=None,
                        help="cache size budget; least-recently-used "
                             "artifacts are evicted past it")
    parser.add_argument("--cache-max-age", type=float, default=None,
                        help="cache artifact lifetime in seconds; older "
                             "artifacts expire (survives restarts)")
    if seeded:
        parser.add_argument("--seed", type=int, default=1,
                            help="root seed of every random draw")
        parser.add_argument("--monte-carlo", type=int, default=50,
                            help="Monte Carlo samples of the window "
                                 "calibration")
        parser.add_argument("--k", type=float, default=5.0,
                            help="window guard-band multiplier "
                                 "(delta = k*sigma)")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write the machine-readable results to this file")
    parser.add_argument("--trace", default=None, metavar="FILE.jsonl",
                        help="append the run's telemetry events to this "
                             "JSONL trace (analyse with `repro-campaign "
                             "trace`)")
    parser.add_argument("--warehouse", default=None, metavar="DB",
                        help="index the run's completed results into this "
                             "SQLite warehouse when the run finishes "
                             "(needs --cache-dir; query with "
                             "`repro-campaign warehouse`)")
    parser.add_argument("--progress", action="store_true",
                        help="live per-stage progress line on stderr")
    _add_output_arguments(parser)


def _add_output_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--quiet", action="store_true",
                        help="suppress narration and tables (errors still "
                             "print)")
    parser.add_argument("--verbose", action="store_true",
                        help="debug-level console output")


def _telemetry_from_args(args: argparse.Namespace,
                         study: Optional[str] = None):
    """Build the run's :class:`~repro.engine.TelemetryBus` from ``--trace``,
    ``--progress`` and ``--warehouse`` (``None`` when none is given, so
    unobserved runs skip event emission entirely).  Callers must
    ``close()`` it."""
    from . import JsonlTraceSink, ProgressSink, TelemetryBus
    # Refuse bad combinations before any sink opens a file.
    if getattr(args, "warehouse", None) and \
            not getattr(args, "cache_dir", None):
        from ..circuit.errors import EngineError
        raise EngineError(
            "--warehouse indexes cached artifacts, so it needs "
            "--cache-dir; add one (or backfill later with "
            "`repro-campaign warehouse index`)")
    sinks: List[Any] = []
    if getattr(args, "trace", None):
        sinks.append(JsonlTraceSink(args.trace))
    if getattr(args, "progress", False):
        sinks.append(ProgressSink())
    if getattr(args, "warehouse", None):
        from ..warehouse import WarehouseSink
        sinks.append(WarehouseSink(args.warehouse, cache_dir=args.cache_dir,
                                   study=study))
    return TelemetryBus(sinks) if sinks else None


def _emit(args: argparse.Namespace, payload: Dict[str, Any]) -> None:
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        console.info(f"wrote {args.json_path}")


def cmd_calibrate(args: argparse.Namespace) -> int:
    """The window calibration as a ``calibrate`` + ``windows`` study.

    Runs through :func:`~repro.engine.spec.run_study` like every other
    study, in the "calibration" cache namespace ``run`` uses, so a
    calibration cached here warms the calibrate and windows stages of a
    ``run`` with the same seed, sample count and ``k`` (and vice versa).
    """
    from ..core import format_table
    from .spec import StageSpec, StudySpec, run_study
    spec = StudySpec(
        name="calibrate", seed=args.seed,
        stages=(StageSpec(stage="calibrate",
                          params={"n_monte_carlo": args.monte_carlo}),
                StageSpec(stage="windows", after=("calibrate",),
                          params={"k": args.k})))
    telemetry = _telemetry_from_args(args, study="calibrate")
    try:
        outcome = run_study(spec, backend=_build_backend(args),
                            cache=_build_cache(args, "calibration"),
                            telemetry=telemetry)
    finally:
        if telemetry is not None:
            telemetry.close()
    calibration = outcome.calibration
    rows = [[name, f"{calibration.sigmas[name]:.3e}",
             f"{calibration.means[name]:+.3e}", f"{delta:.3e}"]
            for name, delta in calibration.deltas.items()]
    console.info(format_table(
        ["invariance", "sigma", "mean", f"delta (k={args.k:g})"], rows,
        title="SymBIST window calibration"))
    _emit(args, {"k": args.k, "n_samples": calibration.n_samples,
                 "sigmas": calibration.sigmas, "means": calibration.means,
                 "deltas": calibration.deltas})
    return 0


def _block_json(block: str, result: Any, variant: Optional[str] = None,
                dut_fingerprint: Optional[str] = None) -> Dict[str, Any]:
    """Machine-readable per-block payload of a study's campaign results.

    Every row names the device it ran against (``dut_fingerprint``,
    defaulting to the paper's device) and the study variant it belongs to
    (``variant``, None outside multi-variant studies), mirroring the
    warehouse columns.  Engine numbers are graph-wide, not per-block, and
    are reported once at the top level (the ``engine`` key).
    """
    from ..dut import default_dut
    report = result.block_report(block)
    return {
        "block": block, "n_defects": report.n_defects,
        "n_simulated": report.n_simulated,
        "n_detected": result.n_detected,
        "n_escaped": result.n_simulated - result.n_detected,
        "coverage": report.coverage.value,
        "ci_half_width": report.coverage.ci_half_width,
        "variant": variant,
        "dut_fingerprint": dut_fingerprint or default_dut().fingerprint(),
        "timing": result.timing_summary()}


def _parse_set_assignment(entry: str) -> "Tuple[str, Any]":
    """One ``--set KEY=VALUE`` override; VALUE parses as JSON when it can.

    ``--set campaign.samples=40`` assigns the integer 40;
    ``--set campaign.blocks=sc_array,subdac1`` assigns a string the
    parameter schema splits into a list; quote JSON for anything richer
    (``--set 'windows.block_k={"sc_array": 7.0}'``).
    """
    from ..circuit.errors import EngineError
    key, separator, raw = entry.partition("=")
    if not separator or not key.strip():
        raise EngineError(
            f"--set expects KEY=VALUE (e.g. campaign.samples=40), "
            f"got {entry!r}")
    try:
        value = json.loads(raw)
    except ValueError:
        value = raw
    return key.strip(), value


def cmd_run(args: argparse.Namespace) -> int:
    """Compile a study spec, run it and report.

    The cache namespace is "calibration" (not a study-private one) so the
    calibrate stage replays artifacts written by ``repro-campaign
    calibrate`` and vice versa; every other stage's artifacts carry
    distinct "driver" fields and cannot collide.
    """
    from .spec import build_study

    spec = _load_spec_with_overrides(args)
    plan = build_study(spec)
    if plan.variants:
        console.info(f"running study {spec.name!r} as one task graph "
                     f"({len(plan.variants)} DUT variants: "
                     f"{', '.join(plan.variants)}; seed {spec.seed})...")
    else:
        console.info(f"running study {spec.name!r} as one task graph "
                     f"(delta = {plan.k:g} sigma, {plan.n_monte_carlo} MC "
                     f"samples, seed {spec.seed})...")
    telemetry = _telemetry_from_args(args, study=spec.name)
    try:
        outcome = plan.run(backend=_build_backend(args),
                           cache=_build_cache(args, "calibration"),
                           telemetry=telemetry)
    finally:
        if telemetry is not None:
            telemetry.close()

    if plan.variants:
        for name, vplan in plan.variants.items():
            _print_stage_tables(vplan, outcome.variants[name],
                                f"{spec.name}:{name}")
    else:
        _print_stage_tables(plan, outcome, spec.name)

    console.info()
    console.info(f"engine: {outcome.report.summary()}")
    stage_line = outcome.report.stage_summary()
    if stage_line:
        console.info(f"stages: {stage_line}")
    _emit(args, study_payload(spec, plan, outcome, workers=args.workers))
    return 0


def study_payload(spec: Any, plan: Any, outcome: Any,
                  workers: int) -> Dict[str, Any]:
    """The machine-readable result of one compiled study run -- exactly
    the JSON ``repro-campaign run --json`` writes.

    Pure (no console output) so the campaign daemon can persist the same
    payload for a submitted study; daemon results and CLI results are
    compared with ``tools/diff_study_json.py``, which pins the key schema,
    so the two paths must never drift apart.
    """
    payload: Dict[str, Any] = {"workers": workers, "k": plan.k,
                               "seed": spec.seed,
                               "dut": plan.dut_fingerprint}
    if plan.variants:
        payload["variants"] = [
            {"variant": name, "dut": vplan.dut_fingerprint,
             **_stage_payload(vplan, outcome.variants[name])}
            for name, vplan in plan.variants.items()]
    else:
        payload.update(_stage_payload(plan, outcome))
    payload["engine"] = outcome.report.summary()
    return payload


def _stage_payload(plan: Any, outcome: Any) -> Dict[str, Any]:
    """One (variant's) study outcome as its JSON fragment -- the payload
    keys shared by the single-DUT and per-variant paths.  Pure; the
    corresponding tables are printed by :func:`_print_stage_tables`."""
    payload: Dict[str, Any] = {}

    # With a uniform k the per-block window calibrations are identical;
    # emit one table either way.
    calibration = outcome.calibration
    if calibration is not None:
        payload["deltas"] = calibration.deltas

    if plan.campaign_stage is not None:
        payload["blocks"] = [
            _block_json(block, result, variant=outcome.variant,
                        dut_fingerprint=plan.dut_fingerprint)
            for block, result in outcome.results.items()]

    if plan.yield_stage is not None:
        payload["yield_loss"] = [
            {"k": p.k, "analytic_per_run": p.analytic_per_run,
             "analytic_ppm": p.analytic_ppm, "empirical": p.empirical,
             "empirical_ci_half_width": p.empirical_ci_half_width}
            for p in outcome.yield_points]

    escapes = outcome.escapes
    if escapes is not None:
        payload["escapes"] = {
            "n_undetected_total": escapes.n_undetected_total,
            "n_analyzed": escapes.n_analyzed,
            "n_functional_escapes": escapes.n_functional_escapes,
            "n_benign": escapes.n_benign,
            "violations": escapes.violations_histogram()}

    return payload


def _print_stage_tables(plan: Any, outcome: Any, label: str) -> None:
    """Print one (variant's) study outcome: the per-stage console tables
    backing the JSON fragments of :func:`_stage_payload`."""
    from ..core import format_confidence, format_table

    calibration = outcome.calibration
    if calibration is not None:
        cal_rows = [[name, f"{calibration.sigmas[name]:.3e}",
                     f"{calibration.means[name]:+.3e}", f"{delta:.3e}"]
                    for name, delta in calibration.deltas.items()]
        console.info()
        console.info(format_table(
            ["invariance", "sigma", "mean", f"delta (k={plan.k:g})"],
            cal_rows,
            title=f"SymBIST window calibration ({label} stage 1)"))

    if plan.campaign_stage is not None:
        rows: List[List[Any]] = []
        for block, result in outcome.results.items():
            report = result.block_report(block)
            rows.append([block, report.n_defects, report.n_simulated,
                         result.n_detected,
                         f"{report.modeled_sim_time:.0f}",
                         format_confidence(report.coverage.value,
                                           report.coverage.ci_half_width)])
        title = (f"SymBIST per-block defect campaigns "
                 f"({label} stages 2-3)") if plan.per_block \
            else f"SymBIST defect campaign ({label} stage 2)"
        console.info()
        console.info(format_table(
            ["A/M-S block", "#defects", "#simulated", "#detected",
             "model sim time (s)", "L-W defect coverage"], rows,
            title=title))

    if plan.yield_stage is not None:
        yield_rows = [[f"{p.k:g}", f"{p.analytic_ppm:.3g}",
                       f"{p.empirical:.4f}"
                       if p.empirical is not None else "-",
                       f"{p.empirical_ci_half_width:.4f}"
                       if p.empirical_ci_half_width is not None else "-"]
                      for p in outcome.yield_points]
        console.info()
        console.info(format_table(
            ["k", "analytic (ppm)", "empirical", "95% CI"],
            yield_rows, title=f"yield loss versus k ({label} stage 3)"))

    escapes = outcome.escapes
    if escapes is not None:
        console.info()
        console.info(f"escape analysis: {escapes.n_analyzed} of "
                     f"{escapes.n_undetected_total} undetected defects "
                     f"analysed, {escapes.n_functional_escapes} functional "
                     f"escapes, {escapes.n_benign} benign")
        for name, count in sorted(escapes.violations_histogram().items()):
            console.info(f"  {name}: {count}")


def _open_cache(args: argparse.Namespace):
    from . import ResultCache
    return ResultCache(args.cache_dir,
                       max_bytes=args.cache_max_bytes,
                       max_age=args.cache_max_age)


def cmd_cache_stats(args: argparse.Namespace) -> int:
    import time
    cache = _open_cache(args)
    artifacts = len(cache)
    total = cache.total_bytes()
    ages: List[float] = []
    now = time.time()
    for key in cache.keys():
        created = cache._created_of(cache._path(key))
        if created is not None:
            ages.append(now - created)
    expired = None
    if args.cache_max_age is not None:
        expired = sum(1 for age in ages if age > args.cache_max_age)
    console.info(f"cache {args.cache_dir}: {artifacts} artifacts, "
                 f"{total} bytes")
    if ages:
        console.info(f"  age: oldest {max(ages):.0f}s, "
                     f"newest {min(ages):.0f}s")
    if expired is not None:
        console.info(f"  expired (> {args.cache_max_age:g}s): {expired}")
    payload = {"cache_dir": args.cache_dir, "artifacts": artifacts,
               "total_bytes": total,
               "oldest_age": max(ages) if ages else None,
               "newest_age": min(ages) if ages else None}
    if expired is not None:
        payload["expired"] = expired
    _emit(args, payload)
    return 0


def cmd_cache_evict(args: argparse.Namespace) -> int:
    from ..circuit.errors import EngineError
    if args.cache_max_bytes is None and args.cache_max_age is None:
        raise EngineError(
            "cache evict needs at least one bound: --cache-max-bytes "
            "and/or --cache-max-age")
    cache = _open_cache(args)
    before = cache.total_bytes()
    removed = cache.evict()
    after = cache.total_bytes()
    console.info(f"cache {args.cache_dir}: evicted {removed} artifacts "
                 f"({before - after} bytes), {len(cache)} artifacts "
                 f"({after} bytes) kept")
    _emit(args, {"cache_dir": args.cache_dir, "evicted": removed,
                 "freed_bytes": before - after, "artifacts": len(cache),
                 "total_bytes": after})
    return 0


def cmd_warehouse_index(args: argparse.Namespace) -> int:
    from ..warehouse import index_cache, open_warehouse
    connection = open_warehouse(args.db)
    try:
        written = index_cache(connection, args.cache_dir, study=args.study)
    finally:
        connection.close()
    console.info(f"indexed {written} artifacts from {args.cache_dir} "
                 f"into {args.db}")
    _emit(args, {"db": args.db, "cache_dir": args.cache_dir,
                 "study": args.study, "rows": written})
    return 0


def _render_query(args: argparse.Namespace, headers: List[str],
                  rows: List[Tuple[Any, ...]],
                  extra: Dict[str, Any]) -> int:
    from ..core import format_table
    if rows:
        console.info(format_table(headers,
                                  [list(row) for row in rows]))
    console.info(f"{len(rows)} row{'s' if len(rows) != 1 else ''}")
    _emit(args, {**extra, "headers": headers,
                 "rows": [list(row) for row in rows]})
    return 0


def cmd_warehouse_query(args: argparse.Namespace) -> int:
    from ..warehouse import open_warehouse, run_canned_query
    connection = open_warehouse(args.db, readonly=True)
    try:
        headers, rows = run_canned_query(connection, args.report)
    finally:
        connection.close()
    return _render_query(args, headers, rows,
                         {"db": args.db, "report": args.report})


def cmd_warehouse_sql(args: argparse.Namespace) -> int:
    from ..warehouse import open_warehouse, run_sql
    connection = open_warehouse(args.db, readonly=True)
    try:
        headers, rows = run_sql(connection, args.sql)
    finally:
        connection.close()
    return _render_query(args, headers, rows,
                         {"db": args.db, "sql": args.sql})


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    from . import format_summary, read_trace, summarize_trace
    summary = summarize_trace(read_trace(args.trace_file))
    console.info(format_summary(summary))
    _emit(args, {
        "backend": summary.backend, "workers": summary.workers,
        "wall_time": summary.wall_time,
        **summary.counts,
        "n_items": summary.n_items,
        "phase_seconds": summary.phase_seconds,
        "stages": [{"stage": row.stage, "total": row.total,
                    "executed": row.executed, "cached": row.cached,
                    "failed": row.failed, "skipped": row.skipped,
                    "items": row.items,
                    "execute_seconds": row.execute_seconds,
                    "mean_queue_wait": row.mean_queue_wait}
                   for row in summary.stages],
        "workers_table": [{"worker": row.worker, "tasks": row.tasks,
                           "busy_seconds": row.busy_seconds,
                           "utilization":
                               row.utilization(summary.wall_time)}
                          for row in summary.worker_rows],
        "critical_path": summary.critical_path,
        "critical_path_seconds": summary.critical_path_seconds})
    return 0


def _chrome_output_path(trace_file: str) -> str:
    base = trace_file[:-len(".jsonl")] if trace_file.endswith(".jsonl") \
        else trace_file
    return base + ".chrome.json"


def cmd_trace_export(args: argparse.Namespace) -> int:
    from . import chrome_trace, read_trace
    data = chrome_trace(read_trace(args.trace_file))
    output = args.output or _chrome_output_path(args.trace_file)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    console.info(f"wrote {output} ({len(data['traceEvents'])} trace events; "
                 f"load it in Perfetto or chrome://tracing)")
    return 0


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", required=True,
                        help="directory of the content-addressed result "
                             "cache")
    parser.add_argument("--cache-max-bytes", type=int, default=None,
                        help="size budget; least-recently-used artifacts "
                             "beyond it are evicted")
    parser.add_argument("--cache-max-age", type=float, default=None,
                        help="artifact lifetime in seconds; older artifacts "
                             "are expired")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write the machine-readable results to this file")
    _add_output_arguments(parser)


_DEFAULT_STATE_DIR = ".repro-service"


def _service_address(args: argparse.Namespace) -> str:
    """The daemon control address a client subcommand should talk to."""
    if getattr(args, "control", None):
        return args.control
    return "unix:%s" % os.path.join(
        getattr(args, "state_dir", None) or _DEFAULT_STATE_DIR,
        "control.sock")


def _add_service_client_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--control", default=None, metavar="ADDR",
                        help="daemon control socket (unix:PATH or "
                             "tcp:HOST:PORT; default: "
                             "unix:<state-dir>/control.sock)")
    parser.add_argument("--state-dir", default=None, metavar="DIR",
                        help="daemon state directory the default control "
                             f"socket lives in (default: "
                             f"{_DEFAULT_STATE_DIR})")
    _add_output_arguments(parser)


def cmd_serve(args: argparse.Namespace) -> int:
    from ..service import CampaignDaemon
    daemon = CampaignDaemon(
        state_dir=args.state_dir or _DEFAULT_STATE_DIR,
        control=args.control,
        worker_socket=args.worker_socket,
        spawn_workers=args.spawn_workers,
        serial=args.serial,
        max_concurrent=args.max_concurrent,
        cache_max_bytes=args.cache_max_bytes,
        cache_max_age=args.cache_max_age,
        task_timeout=args.task_timeout)
    console.info(f"campaign daemon up: control {daemon.control_address}")
    if daemon.worker_address is not None:
        console.info(f"workers connect with: repro-campaign worker "
                     f"--connect {daemon.worker_address}")
    console.info(f"state dir: {daemon.state_dir}")
    daemon.serve_forever()
    console.info("campaign daemon stopped")
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    from ..service import run_worker
    executed = run_worker(args.connect, max_tasks=args.max_tasks,
                          crash_after=args.crash_after)
    console.info(f"worker done: {executed} tasks executed")
    return 0


def _load_spec_with_overrides(args: argparse.Namespace):
    from .spec import load_study
    spec = load_study(args.study)
    assignments = [_parse_set_assignment(entry)
                   for entry in (args.set or [])]
    if assignments:
        spec = spec.override(dict(assignments))
    return spec.validated()


def cmd_submit(args: argparse.Namespace) -> int:
    from ..service import client
    spec = _load_spec_with_overrides(args)
    address = _service_address(args)
    response = client.submit(address, spec.to_jsonable(), wait=args.wait)
    console.info(f"submitted {spec.name!r} as {response['id']} "
                 f"[{response['state']}] to {address}")
    if not args.wait:
        return 0
    state = response["state"]
    if state != "done":
        console.error(f"study {response['id']} finished as {state}"
                      + (f": {response['error']}"
                         if response.get("error") else ""))
        return 1
    result = response.get("result")
    if result is not None:
        _emit(args, result)
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    from ..core import format_table
    from ..service import client
    response = client.status(_service_address(args), args.id,
                             with_result=bool(args.json_path))
    if args.id is not None:
        console.info(f"{response['id']}: {response['state']}"
                     + (f" ({response['error']})"
                        if response.get("error") else ""))
        if response.get("result_path"):
            console.info(f"result: {response['result_path']}")
        _emit(args, {key: value for key, value in response.items()
                     if key != "ok"})
        return 0
    rows = [[entry["id"], entry["name"], entry["state"],
             entry.get("error") or ""]
            for entry in response["studies"]]
    console.info(format_table(["id", "study", "state", "error"], rows,
                              title="campaign daemon studies"))
    _emit(args, {"studies": response["studies"]})
    return 0


def cmd_attach(args: argparse.Namespace) -> int:
    from ..service import client
    final_state = None
    for line in client.attach(_service_address(args), args.id):
        if isinstance(line, dict) and line.get("done"):
            final_state = line.get("state")
            if line.get("error"):
                console.error(f"{args.id}: {line['error']}")
            break
        print(json.dumps(line, sort_keys=True), flush=True)
    console.info(f"{args.id}: {final_state or 'detached'}")
    return 0 if final_state in (None, "done") else 1


def cmd_cancel(args: argparse.Namespace) -> int:
    from ..service import client
    response = client.cancel(_service_address(args), args.id)
    console.info(f"cancel requested for {response['id']} "
                 f"(was {response['state']})")
    return 0


def cmd_shutdown(args: argparse.Namespace) -> int:
    from ..service import client
    client.shutdown(_service_address(args))
    console.info("daemon shutdown requested; running studies persist "
                 "and resume on the next `repro-campaign serve`")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="SymBIST reproduction campaigns through the "
                    "parallel/cached execution engine")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {_package_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="compile and run a declarative study spec (TOML/JSON file or "
             "canned study name) as one task graph")
    run.add_argument("study",
                     help="path to a .toml/.json study spec, or a canned "
                          "study name (calibrate-then-campaign, "
                          "block-study, yield-loss-study)")
    run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a spec entry: seed=..., <param>=... "
                          "(study-wide), <stage>.<param>=... (one stage) or "
                          "dut.<field>=... (the device under test, e.g. "
                          "dut.resolution_bits=8); repeatable")
    _add_engine_arguments(run)
    run.set_defaults(func=cmd_run)

    calibrate = sub.add_parser(
        "calibrate", help="Monte Carlo window calibration (delta = k*sigma)")
    _add_engine_arguments(calibrate, seeded=True)
    calibrate.set_defaults(func=cmd_calibrate)

    trace = sub.add_parser(
        "trace",
        help="analyse a JSONL telemetry trace saved with --trace")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="critical path, per-stage/per-worker utilization and "
             "queue-wait breakdown of a trace")
    summarize.add_argument("trace_file",
                           help="JSONL trace written by --trace")
    summarize.add_argument("--json", dest="json_path", default=None,
                           help="write the machine-readable summary to "
                                "this file")
    _add_output_arguments(summarize)
    summarize.set_defaults(func=cmd_trace_summarize)
    export = trace_sub.add_parser(
        "export", help="convert a JSONL trace for an external viewer")
    export.add_argument("trace_file", help="JSONL trace written by --trace")
    export.add_argument("--format", choices=("chrome",), default="chrome",
                        help="output format (chrome: trace-event JSON for "
                             "Perfetto / chrome://tracing)")
    export.add_argument("--output", "-o", default=None,
                        help="output path (default: the trace path with a "
                             ".chrome.json suffix)")
    _add_output_arguments(export)
    export.set_defaults(func=cmd_trace_export)

    cache = sub.add_parser(
        "cache", help="inspect or garbage-collect a result-cache directory")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    stats = cache_sub.add_parser(
        "stats", help="artifact count, footprint and age of a cache")
    _add_cache_arguments(stats)
    stats.set_defaults(func=cmd_cache_stats)
    evict = cache_sub.add_parser(
        "evict", help="apply --cache-max-bytes/--cache-max-age bounds now")
    _add_cache_arguments(evict)
    evict.set_defaults(func=cmd_cache_evict)

    warehouse = sub.add_parser(
        "warehouse",
        help="SQLite index of completed results: backfill it from a cache "
             "directory and query it with canned reports or raw SQL")
    warehouse_sub = warehouse.add_subparsers(dest="warehouse_command",
                                             required=True)
    index = warehouse_sub.add_parser(
        "index",
        help="backfill a warehouse database from a cache directory")
    index.add_argument("cache_dir",
                       help="result-cache directory to index")
    index.add_argument("--db", required=True,
                       help="SQLite warehouse database (created on demand)")
    index.add_argument("--study", default=None,
                       help="study name to record on the indexed rows "
                            "(default: none)")
    index.add_argument("--json", dest="json_path", default=None,
                       help="write the machine-readable summary to this "
                            "file")
    _add_output_arguments(index)
    index.set_defaults(func=cmd_warehouse_index)
    query = warehouse_sub.add_parser(
        "query",
        help="run a canned report: per-block-coverage, slowest-stages or "
             "cache-composition")
    query.add_argument("report",
                       help="report name (per-block-coverage, "
                            "slowest-stages, cache-composition)")
    query.add_argument("--db", required=True,
                       help="SQLite warehouse database (read-only)")
    query.add_argument("--json", dest="json_path", default=None,
                       help="write the headers and rows to this file")
    _add_output_arguments(query)
    query.set_defaults(func=cmd_warehouse_query)
    sql = warehouse_sub.add_parser(
        "sql", help="run one SQL statement against the warehouse "
                    "(read-only)")
    sql.add_argument("sql", metavar="SQL",
                     help="SQL to execute, e.g. \"SELECT block, coverage "
                          "FROM results WHERE stage_kind = "
                          "'block-summary'\"")
    sql.add_argument("--db", required=True,
                     help="SQLite warehouse database (read-only)")
    sql.add_argument("--json", dest="json_path", default=None,
                     help="write the headers and rows to this file")
    _add_output_arguments(sql)
    sql.set_defaults(func=cmd_warehouse_sql)

    serve = sub.add_parser(
        "serve",
        help="persistent campaign daemon: submit studies over a control "
             "socket onto one shared scheduler, warm cache and worker pool")
    serve.add_argument("--state-dir", default=None, metavar="DIR",
                       help="root of the daemon's persistent state: study "
                            "records, traces, results, cache and the "
                            "default sockets (default: "
                            f"{_DEFAULT_STATE_DIR})")
    serve.add_argument("--control", default=None, metavar="ADDR",
                       help="control socket address (unix:PATH or "
                            "tcp:HOST:PORT; default: "
                            "unix:<state-dir>/control.sock)")
    serve.add_argument("--worker-socket", default=None, metavar="ADDR",
                       help="socket remote workers connect to (default: "
                            "unix:<state-dir>/workers.sock)")
    serve.add_argument("--spawn-workers", type=int, default=0,
                       metavar="N",
                       help="local worker processes to launch immediately; "
                            "they persist across study runs (default: 0 -- "
                            "workers join with `repro-campaign worker`)")
    serve.add_argument("--serial", action="store_true",
                       help="execute studies in-process instead of on "
                            "socket workers (same control protocol)")
    serve.add_argument("--max-concurrent", type=_positive_int, default=2,
                       help="studies executing simultaneously on the "
                            "shared backend")
    serve.add_argument("--task-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-task deadline; a worker exceeding it is "
                            "declared dead and its task is requeued")
    serve.add_argument("--cache-max-bytes", type=int, default=None,
                       help="shared cache size budget (LRU eviction)")
    serve.add_argument("--cache-max-age", type=float, default=None,
                       help="shared cache artifact lifetime in seconds")
    _add_output_arguments(serve)
    serve.set_defaults(func=cmd_serve)

    worker = sub.add_parser(
        "worker",
        help="execute tasks for a socket backend or daemon somewhere else")
    worker.add_argument("--connect", required=True, metavar="ADDR",
                        help="worker socket of the backend/daemon "
                             "(unix:PATH or tcp:HOST:PORT)")
    worker.add_argument("--max-tasks", type=_positive_int, default=None,
                        help="exit cleanly after this many tasks "
                             "(default: run until the server says bye)")
    worker.add_argument("--crash-after", type=int, default=None,
                        metavar="N",
                        help="testing aid: hard-exit on receiving task "
                             "N+1, exercising the dead-worker requeue path")
    _add_output_arguments(worker)
    worker.set_defaults(func=cmd_worker)

    submit = sub.add_parser(
        "submit",
        help="submit a study spec to a running campaign daemon")
    submit.add_argument("study",
                        help="path to a .toml/.json study spec, or a "
                             "canned study name")
    submit.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a spec entry (same syntax as "
                             "`repro-campaign run --set`); repeatable")
    submit.add_argument("--wait", action="store_true",
                        help="block until the study finishes and report "
                             "its result")
    submit.add_argument("--json", dest="json_path", default=None,
                        help="with --wait: write the study's result "
                             "payload (the `run --json` schema) to this "
                             "file")
    _add_service_client_arguments(submit)
    submit.set_defaults(func=cmd_submit)

    status = sub.add_parser(
        "status",
        help="list a daemon's studies, or show one study's state")
    status.add_argument("id", nargs="?", default=None,
                        help="study id (omit to list every study)")
    status.add_argument("--json", dest="json_path", default=None,
                        help="write the machine-readable status to this "
                             "file (single-study status includes the "
                             "result payload when available)")
    _add_service_client_arguments(status)
    status.set_defaults(func=cmd_status)

    attach = sub.add_parser(
        "attach",
        help="stream a daemon study's live telemetry events (JSONL trace "
             "schema) to stdout")
    attach.add_argument("id", help="study id to attach to")
    _add_service_client_arguments(attach)
    attach.set_defaults(func=cmd_attach)

    cancel = sub.add_parser(
        "cancel", help="request cooperative cancellation of a daemon study")
    cancel.add_argument("id", help="study id to cancel")
    _add_service_client_arguments(cancel)
    cancel.set_defaults(func=cmd_cancel)

    shutdown = sub.add_parser(
        "shutdown",
        help="stop a running campaign daemon (unfinished studies resume "
             "on restart)")
    _add_service_client_arguments(shutdown)
    shutdown.set_defaults(func=cmd_shutdown)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if not argv:
        # A bare invocation gets the subcommand list, not an argparse
        # "the following arguments are required" error.
        console.configure()
        parser = build_parser()
        console.error(
            f"repro-campaign {_package_version()}: missing a subcommand")
        console.error()
        parser.print_usage(sys.stderr)
        console.error("\nsubcommands:")
        for action in parser._subparsers._group_actions:  # type: ignore[union-attr]
            for choice in action._choices_actions:
                console.error(f"  {choice.dest:<12} {choice.help}")
        console.error("\nrun `repro-campaign <subcommand> --help` for "
                      "details")
        return 2
    args = build_parser().parse_args(argv)
    console.configure(quiet=getattr(args, "quiet", False),
                      verbose=getattr(args, "verbose", False))
    from ..circuit import ReproError
    try:
        return args.func(args)
    except ReproError as exc:
        console.error(f"repro-campaign: error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
