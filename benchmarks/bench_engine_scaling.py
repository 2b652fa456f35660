"""Engine scaling -- campaign throughput at workers=1 versus workers=N.

Measures the defect-campaign throughput of the execution engine
(:mod:`repro.engine`) on the serial backend and on the process pool, plus
the warm-cache replay rate, compares the one-graph per-block sweep (the
block-study shape) against the historical one-engine-run-per-block loop,
and checks that compiling the declarative block-study spec
(``build_study``) costs under 1% of running it.  On multi-core runners the
pool should approach linear speedup (the per-defect simulations are
independent, exactly like the per-defect SPICE jobs an industrial DefectSim
farm distributes); on single-CPU runners the wall-clock scaling cases are
skipped.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.adc import SarAdc
from repro.core import format_table
from repro.defects import DefectCampaign, SamplingPlan
from repro.engine import ResultCache, SerialBackend, SharedMemoryBackend

BENCHMARK_SEED = 20200309

#: LWRS budget of the benchmark campaign (>=100 defects, like the paper's
#: whole-IP row).
N_DEFECTS = 120

#: Pool width of the parallel case.
N_WORKERS = min(4, os.cpu_count() or 1)


def _run(campaign, backend, cache=None, batch_size=1):
    rng = np.random.default_rng(BENCHMARK_SEED)
    return campaign.run(SamplingPlan(exhaustive=False, n_samples=N_DEFECTS),
                        rng=rng, backend=backend, cache=cache,
                        batch_size=batch_size)


def _coverage_key(result):
    return [(r.defect.defect_id, r.detected, r.detection_cycle)
            for r in result.records]


def test_engine_scaling(benchmark, deltas, tmp_path):
    """Throughput at workers=1 vs workers=N, plus warm-cache replay."""
    campaign = DefectCampaign(adc=SarAdc(), deltas=deltas)

    serial = benchmark.pedantic(_run, args=(campaign, SerialBackend()),
                                rounds=1, iterations=1)
    rows = [["serial", 1, serial.engine_report.n_executed,
             f"{serial.engine_report.wall_time:.2f}",
             f"{serial.engine_report.tasks_per_second:.1f}"]]

    if N_WORKERS > 1:
        pool = _run(campaign, SharedMemoryBackend(max_workers=N_WORKERS))
        assert _coverage_key(pool) == _coverage_key(serial)
        rows.append(["pool (shm)", N_WORKERS, pool.engine_report.n_executed,
                     f"{pool.engine_report.wall_time:.2f}",
                     f"{pool.engine_report.tasks_per_second:.1f}"])

    cache = ResultCache(str(tmp_path / "cache"), namespace="defects")
    cold = _run(campaign, SerialBackend(), cache=cache)
    warm = _run(campaign, SerialBackend(), cache=cache)
    assert _coverage_key(warm) == _coverage_key(serial)
    assert warm.engine_report.n_cache_hits == warm.engine_report.n_tasks
    assert warm.engine_report.wall_time < 0.1 * cold.engine_report.wall_time
    rows.append(["serial + warm cache", 1, warm.engine_report.n_executed,
                 f"{warm.engine_report.wall_time:.2f}",
                 f"{warm.engine_report.tasks_per_second:.1f}"])

    print()
    print(format_table(
        ["backend", "workers", "#executed", "wall (s)", "defects/s"],
        rows, title=f"engine scaling ({N_DEFECTS} LWRS defects, whole IP)"))

    if N_WORKERS == 1:
        pytest.skip("single-CPU runner: parallel scaling not measurable")


#: Batch size of the batched-campaign comparison; chosen so the 120-defect
#: benchmark campaign collapses into two tasks.
BATCH_SIZE = 64


def test_batched_campaign_speedup(deltas):
    """Golden-trace batches vs full re-simulation: >=5x, bit-identical.

    Every campaign task evaluates its batch against the defect-free golden
    trace, simulated once per stimulus, re-evaluating only the pipeline
    stage a defect is local to (plus the downstream codes whose inputs
    actually changed); ``simulate_defect`` re-runs the full staged sweep
    per defect.  The records must match bit for bit and batch size 64 must
    be at least 5x faster than the full re-simulation of the same defects
    (the full-resimulation fallback would show up here as a flat ratio).
    Batch size 1 -- batches of one -- is reported alongside.
    """
    import time

    campaign = DefectCampaign(adc=SarAdc(), deltas=deltas)
    rounds = 2

    def min_wall(batch_size):
        walls = []
        result = None
        for _ in range(rounds):
            result = _run(campaign, SerialBackend(), batch_size=batch_size)
            walls.append(result.engine_report.wall_time)
        return min(walls), result

    singleton_wall, singleton = min_wall(1)
    batched_wall, batched = min_wall(BATCH_SIZE)
    defects = [record.defect for record in batched.records]
    full_walls = []
    for _ in range(rounds):
        start = time.perf_counter()
        full = [campaign.simulate_defect(defect) for defect in defects]
        full_walls.append(time.perf_counter() - start)
    full_wall = min(full_walls)

    full_key = [(r.defect.defect_id, r.detected, r.detection_cycle)
                for r in full]
    assert _coverage_key(batched) == _coverage_key(singleton) == full_key
    speedup = full_wall / batched_wall
    print()
    print(format_table(
        ["evaluation", "#tasks", "wall (s)", "defects/s", "speedup"],
        [["full re-simulation", "-", f"{full_wall:.2f}",
          f"{N_DEFECTS / full_wall:.1f}", "-"],
         ["batch size 1", singleton.engine_report.n_tasks,
          f"{singleton_wall:.2f}", f"{N_DEFECTS / singleton_wall:.1f}",
          f"{full_wall / singleton_wall:.1f}x"],
         [f"batch size {BATCH_SIZE}", batched.engine_report.n_tasks,
          f"{batched_wall:.2f}", f"{N_DEFECTS / batched_wall:.1f}",
          f"{speedup:.1f}x"]],
        title=f"batched campaign ({N_DEFECTS} LWRS defects, serial, "
              f"min of {rounds} rounds)"))
    assert speedup >= 5.0


#: Per-block sweep shape of the block-study comparison (Table I style).
BLOCK_SAMPLES = 60
BLOCK_EXHAUSTIVE_THRESHOLD = 120


def test_block_study_beats_sequential_per_block_loop(deltas):
    """One-graph per-block sweep vs the historical one-run-per-block loop.

    The sequential loop launches a separate serial engine run per block, so
    a 3-defect block's run cannot overlap a 300-defect block's; the
    block-study shape submits every block's tasks into one graph and keeps
    the pool saturated.  Same defects, same records -- the one-graph pooled
    sweep must finish faster than the summed sequential runs at >=2 workers.
    """
    if N_WORKERS < 2:
        pytest.skip("single-CPU runner: pool utilization not measurable")
    campaign = DefectCampaign(adc=SarAdc(), deltas=deltas)
    blocks = campaign.universe.block_paths()

    # The historical shape: one serial engine run per block (per-block seeds
    # match run_per_block's, so both flows simulate identical defects).
    from repro.defects import block_seed_sequence
    sequential_wall = 0.0
    sequential_key = []
    n_tasks = 0
    for block in blocks:
        size = len(campaign.universe.by_block(block))
        plan = SamplingPlan(exhaustive=size <= BLOCK_EXHAUSTIVE_THRESHOLD,
                            n_samples=BLOCK_SAMPLES)
        rng = np.random.default_rng(
            block_seed_sequence(BENCHMARK_SEED, block))
        result = campaign.run(plan, blocks=[block], rng=rng,
                              backend=SerialBackend())
        sequential_wall += result.engine_report.wall_time
        sequential_key.extend(_coverage_key(result))
        n_tasks += result.n_simulated

    pooled = campaign.run_per_block(
        n_samples_per_block=BLOCK_SAMPLES, seed=BENCHMARK_SEED,
        exhaustive_threshold=BLOCK_EXHAUSTIVE_THRESHOLD,
        backend=SharedMemoryBackend(max_workers=N_WORKERS))
    pooled_key = [entry for block in blocks
                  for entry in _coverage_key(pooled[block])]
    report = next(iter(pooled.values())).engine_report

    print()
    print(format_table(
        ["sweep shape", "workers", "#tasks", "wall (s)", "defects/s"],
        [["sequential per-block loop", 1, n_tasks,
          f"{sequential_wall:.2f}", f"{n_tasks / sequential_wall:.1f}"],
         ["block-study (one graph)", N_WORKERS, report.n_tasks,
          f"{report.wall_time:.2f}", f"{report.tasks_per_second:.1f}"]],
        title=f"per-block sweep: one graph vs {len(blocks)} sequential runs"))

    assert pooled_key == sequential_key  # same defects, same records
    assert report.wall_time < sequential_wall


#: Variant corners of the multi-DUT sweep comparison.
SWEEP_VARIANTS = (("nominal", {}),
                  ("vdd-low", {"vdd": 1.08}),
                  ("vdd-high", {"vdd": 1.32}))
SWEEP_SAMPLES = 25
SWEEP_BLOCKS = ("vcm_generator", "rs_latch")


def _sweep_stages():
    from repro.engine import StageSpec
    return (
        StageSpec(stage="calibrate", params={"n_monte_carlo": 8}),
        StageSpec(stage="windows", after=("calibrate",),
                  params={"k": 5.0, "per_block": True}),
        StageSpec(stage="campaign", after=("windows",),
                  params={"samples": SWEEP_SAMPLES,
                          "exhaustive_threshold": 2 * SWEEP_SAMPLES,
                          "blocks": list(SWEEP_BLOCKS)}),
        StageSpec(stage="block-summary", name="summary",
                  after=("windows", "campaign")),
    )


def test_variant_sweep_beats_sequential_single_variant_runs():
    """3-variant DUT sweep in ONE task graph vs three sequential runs.

    The historical way to sweep device corners is three CLI invocations,
    one per device: each pays its own pool spin-up and serializes its own
    calibrate -> windows barrier with the pool mostly idle.  The
    ``[[variants]]`` fan-out submits all three variants' tasks into one
    graph, so one variant's campaign tasks fill the gaps of another's
    barriers.  Same derived seeds, same devices -- per-variant records
    must match bit for bit and the one-graph sweep must finish faster
    than the summed sequential runs at >=2 workers.
    """
    if N_WORKERS < 2:
        pytest.skip("single-CPU runner: pool utilization not measurable")
    from repro.defects import variant_seed
    from repro.engine import StudySpec, VariantSpec, build_study

    def digest(outcome):
        return {block: _coverage_key(outcome.results[block])
                for block in SWEEP_BLOCKS}

    # Three sequential single-variant runs, each with its own pool (what
    # three `repro-campaign run` invocations would do).
    sequential_wall = 0.0
    n_sequential_tasks = 0
    sequential = {}
    for name, dut in SWEEP_VARIANTS:
        spec = StudySpec(name=f"single-{name}",
                         seed=variant_seed(BENCHMARK_SEED, name),
                         stages=_sweep_stages(), dut=dut).validated()
        outcome = build_study(spec).run(
            backend=SharedMemoryBackend(max_workers=N_WORKERS))
        assert outcome.ok
        sequential_wall += outcome.report.wall_time
        n_sequential_tasks += outcome.report.n_tasks
        sequential[name] = digest(outcome)

    sweep_spec = StudySpec(
        name="variant-sweep-bench", seed=BENCHMARK_SEED,
        stages=_sweep_stages(),
        variants=tuple(VariantSpec(name=name, dut=dut)
                       for name, dut in SWEEP_VARIANTS)).validated()
    swept = build_study(sweep_spec).run(
        backend=SharedMemoryBackend(max_workers=N_WORKERS))
    assert swept.ok

    for name, _ in SWEEP_VARIANTS:
        assert digest(swept.variants[name]) == sequential[name]

    print()
    print(format_table(
        ["sweep shape", "workers", "#tasks", "wall (s)"],
        [[f"{len(SWEEP_VARIANTS)} sequential single-variant runs",
          N_WORKERS, n_sequential_tasks, f"{sequential_wall:.2f}"],
         ["variant sweep (one graph)", N_WORKERS,
          swept.report.n_tasks, f"{swept.report.wall_time:.2f}"]],
        title=f"DUT corner sweep: one graph vs "
              f"{len(SWEEP_VARIANTS)} sequential runs"))

    assert swept.report.wall_time < sequential_wall


def test_spec_compilation_overhead():
    """Declarative studies must compile for free next to running them.

    ``build_study`` resolves the canned block-study spec against the stage
    registry and emits its ~600-task graph: the DUT build, the LWRS
    selection and the task/spec construction dominate.  Compiling the spec
    must stay under 1% of the default block study's serial wall-clock --
    the composition layer is free, the simulations are the cost.
    """
    import time

    from repro.engine import BLOCK_STUDY, build_study

    def min_wall(builder, rounds=3):
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            plan = builder()
            times.append(time.perf_counter() - start)
        return min(times), plan

    spec_wall, plan = min_wall(lambda: build_study(BLOCK_STUDY))

    outcome = plan.run(backend=SerialBackend())
    run_wall = outcome.report.wall_time

    print()
    print(format_table(
        ["path", "build (ms)", "run (s)", "overhead vs run"],
        [["build_study(BLOCK_STUDY)", f"{spec_wall * 1e3:.1f}",
          f"{run_wall:.2f}", f"{100.0 * spec_wall / run_wall:.2f}%"]],
        title=f"spec compilation overhead "
              f"({outcome.report.n_tasks}-task default block study)"))

    assert outcome.ok
    assert spec_wall < 0.01 * run_wall


def test_telemetry_overhead_under_five_percent(deltas):
    """A fully-instrumented run must cost < 5% over an untraced one.

    The telemetry path adds one JSONL trace sink plus the in-process
    metrics registry -- the full ``--trace`` configuration -- to the
    serial benchmark campaign.  Per-event work is a dataclass, a dict and
    one buffered ``write``; against a campaign whose per-task cost is an
    ADC conversion sweep that must stay in the noise.  Min-of-rounds on
    both sides to suppress scheduler jitter.
    """
    import tempfile
    from pathlib import Path

    from repro.engine import JsonlTraceSink, MetricsSink, TelemetryBus

    campaign = DefectCampaign(adc=SarAdc(), deltas=deltas)
    rounds = 3

    def min_wall(telemetry_factory):
        walls = []
        result = None
        for _ in range(rounds):
            rng = np.random.default_rng(BENCHMARK_SEED)
            telemetry = telemetry_factory()
            result = campaign.run(
                SamplingPlan(exhaustive=False, n_samples=N_DEFECTS),
                rng=rng, backend=SerialBackend(), telemetry=telemetry)
            if telemetry is not None:
                telemetry.close()
            walls.append(result.engine_report.wall_time)
        return min(walls), result

    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "bench-trace.jsonl"

        def traced_bus():
            return TelemetryBus([JsonlTraceSink(trace_path), MetricsSink()])

        campaign.run(SamplingPlan(exhaustive=False, n_samples=N_DEFECTS),
                     rng=np.random.default_rng(BENCHMARK_SEED),
                     backend=SerialBackend())  # warm-up round
        bare_wall, bare = min_wall(lambda: None)
        traced_wall, traced = min_wall(traced_bus)

    assert _coverage_key(traced) == _coverage_key(bare)
    overhead = 100.0 * (traced_wall - bare_wall) / bare_wall
    print()
    print(format_table(
        ["configuration", "#executed", "wall (s)", "overhead"],
        [["untraced", bare.engine_report.n_executed,
          f"{bare_wall:.3f}", "-"],
         ["--trace + metrics", traced.engine_report.n_executed,
          f"{traced_wall:.3f}", f"{overhead:+.1f}%"]],
        title=f"telemetry overhead ({N_DEFECTS} LWRS defects, "
              f"min of {rounds} rounds)"))
    assert overhead < 5.0


#: Artifact count of the warehouse-vs-crawl comparison (paper-scale: an
#: exhaustive whole-IP campaign caches ~10^4 per-defect records).
N_WAREHOUSE_ARTIFACTS = 10_000
WAREHOUSE_BLOCKS = ("sc_array", "subdac1", "subdac2", "vcm_generator",
                    "preamplifier", "comparator_latch", "rs_latch",
                    "offset_compensation")


def test_warehouse_query_beats_directory_crawl(tmp_path):
    """Per-block aggregation: SQLite index vs crawling the artifact store.

    Before the warehouse, answering "detections per block" over a cached
    campaign meant opening and JSON-parsing every artifact in the cache
    directory.  The warehouse pays that parse once at indexing time and
    answers the same question with one indexed SQL aggregate; at 10^4
    artifacts the query must be >=10x faster than the crawl (and return
    identical numbers).
    """
    import json
    import sqlite3
    import time

    from repro.warehouse import index_cache, open_warehouse

    rng = np.random.default_rng(BENCHMARK_SEED)
    cache = ResultCache(str(tmp_path / "cache"), namespace="defects")
    for i in range(N_WAREHOUSE_ARTIFACTS):
        block = WAREHOUSE_BLOCKS[int(rng.integers(len(WAREHOUSE_BLOCKS)))]
        spec = {"driver": "symbist-defect-batch",
                "members": [{"defect_id": f"{block}:d{i}:short"}],
                "windows": {"driver": "symbist-block-windows",
                            "block": block, "seeds": "sha:bench"}}
        cache.put(cache.key_for(spec),
                  [{"defect": {"defect_id": f"{block}:d{i}:short",
                               "block_path": block},
                    "detected": bool(rng.integers(2)),
                    "modeled_sim_time": float(rng.uniform(0.5, 4.0)),
                    "wall_time": float(rng.uniform(0.001, 0.01))}],
                  task_id=f"campaign/{block}/{i}-{i + 1}", spec=spec)

    def crawl():
        """The pre-warehouse answer: parse every artifact, aggregate."""
        totals = {}
        for name in os.listdir(cache.cache_dir):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(cache.cache_dir, name),
                      encoding="utf-8") as handle:
                entry = json.load(handle)
            spec = entry.get("spec") or {}
            if spec.get("driver") != "symbist-defect-batch":
                continue
            block = spec["windows"]["block"]
            for record in entry["result"]:
                simulated, detected = totals.get(block, (0, 0))
                totals[block] = (simulated + 1,
                                 detected + int(record["detected"]))
        return totals

    start = time.perf_counter()
    connection = open_warehouse(str(tmp_path / "wh.sqlite"))
    n_indexed = index_cache(connection, cache.cache_dir)
    index_wall = time.perf_counter() - start
    connection.close()
    assert n_indexed == N_WAREHOUSE_ARTIFACTS

    def query():
        connection = sqlite3.connect(str(tmp_path / "wh.sqlite"))
        rows = connection.execute(
            "SELECT block, SUM(n_simulated), SUM(n_detected) FROM results "
            "WHERE stage_kind = 'campaign' GROUP BY block").fetchall()
        connection.close()
        return {block: (simulated, detected)
                for block, simulated, detected in rows}

    rounds = 3
    crawl_wall = min(_timed(crawl) for _ in range(rounds))
    query_wall = min(_timed(query) for _ in range(rounds))
    assert query() == crawl()  # identical numbers either way

    speedup = crawl_wall / query_wall
    print()
    print(format_table(
        ["path", "wall (ms)", "speedup"],
        [["directory crawl (parse every artifact)",
          f"{crawl_wall * 1e3:.1f}", "-"],
         ["warehouse query (indexed SQL)",
          f"{query_wall * 1e3:.2f}", f"{speedup:.0f}x"],
         [f"one-time indexing of {n_indexed} artifacts",
          f"{index_wall * 1e3:.1f}", "-"]],
        title=f"per-block aggregation over {N_WAREHOUSE_ARTIFACTS} cached "
              f"artifacts"))
    assert speedup >= 10.0


def _timed(fn):
    import time
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


#: Tiny study of the daemon-latency comparison -- small enough that a
#: fully-cached replay is dominated by fixed costs, which is exactly what
#: the persistent service exists to amortize.
DAEMON_STUDY = {
    "name": "daemon-latency", "seed": BENCHMARK_SEED,
    "stages": [
        {"stage": "calibrate", "params": {"n_monte_carlo": 3}},
        {"stage": "windows", "after": ["calibrate"]},
        {"stage": "campaign", "after": ["windows"],
         "params": {"blocks": ["vcm_generator"], "samples": 4,
                    "exhaustive_threshold": 8}},
    ],
}


def test_daemon_warm_submission_beats_cold_cli_process(tmp_path):
    """Warm-cache submission latency: persistent daemon vs cold CLI run.

    The one-shot ``repro-campaign run`` pays a fresh interpreter, the
    numpy import, spec compilation and cache-dir open on every invocation
    even when every task replays from cache.  The ``serve`` daemon pays
    those once and keeps the compiled state, the warm ``ResultCache`` and
    the worker pool resident, so a fully-cached submission over the
    control socket is pure scheduling.  Both paths share one cache
    directory (same ``calibration`` namespace), return the same payload,
    and the daemon submission must be >=5x faster.
    """
    import json
    import subprocess
    import sys
    import time

    from repro.service import CampaignDaemon, client

    spec_path = tmp_path / "daemon-latency.json"
    spec_path.write_text(json.dumps(DAEMON_STUDY), encoding="utf-8")
    state_dir = tmp_path / "svc"
    cache_dir = state_dir / "cache"

    src_dir = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "src"))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")

    def cold_run(out_path):
        """One full `repro-campaign run` process against the warm cache."""
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro.engine.cli", "run",
             str(spec_path), "--cache-dir", str(cache_dir), "--quiet",
             "--json", str(out_path)],
            check=True, env=env, stdout=subprocess.DEVNULL)
        return time.perf_counter() - start

    rounds = 3
    with CampaignDaemon(str(state_dir), serial=True) as daemon:
        address = daemon.control_address
        # First submission computes everything and warms the shared cache.
        first = client.submit(address, DAEMON_STUDY, wait=True)
        assert first["state"] == "done"

        warm_wall, warm = min(
            (_timed_value(lambda: client.submit(address, DAEMON_STUDY,
                                                wait=True))
             for _ in range(rounds)), key=lambda pair: pair[0])
        assert warm["state"] == "done"
        assert ", 0 executed, " in warm["result"]["engine"]  # fully cached

        cold_wall = min(cold_run(tmp_path / f"cold-{i}.json")
                        for i in range(rounds))

    with open(tmp_path / f"cold-{rounds - 1}.json",
              encoding="utf-8") as handle:
        cold_payload = json.load(handle)

    def deterministic(payload):
        payload = json.loads(json.dumps(payload))  # deep copy
        payload.pop("engine", None)
        for block in payload.get("blocks", []):
            block.pop("timing", None)
        return payload

    assert deterministic(warm["result"]) == deterministic(cold_payload)

    speedup = cold_wall / warm_wall
    print()
    print(format_table(
        ["submission path", "wall (ms)", "speedup"],
        [["cold `repro-campaign run` process", f"{cold_wall * 1e3:.0f}",
          "-"],
         ["warm daemon submit (control socket)", f"{warm_wall * 1e3:.1f}",
          f"{speedup:.0f}x"]],
        title=f"fully-cached submission latency (min of {rounds} rounds)"))
    assert speedup >= 5.0


def _timed_value(fn):
    import time
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value
