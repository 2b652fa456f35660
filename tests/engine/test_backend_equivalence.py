"""Randomized serial x process-pool x socket equivalence suite.

The engine's core guarantee is that the execution backend is invisible in
the results: whatever shards the work, the windows, detections, coverage and
engine-report counts must be *bit-identical* to the serial run.  Instead of
pinning a handful of hand-picked workloads, this suite draws ~20 randomized
campaign specs from one seeded generator (so every run of the suite sees the
same cases) spanning five study shapes -- single-block defect campaigns,
window calibrations, yield-loss sweeps, the calibrate->campaign graph and
the per-block study graph -- and checks the process pool against a memoized
serial baseline.  The ``multiprocess`` cases are named after a former CLI
alias of ``shm``; ``cli_backend`` builds the same pool for them.  The
batched cases and the :data:`SPAWN_CASES` also run on a ``spawn`` pool,
whose workers receive the campaign context by pickle through the pool
initializer instead of inheriting it by ``fork``.
"""

import numpy as np
import pytest

from repro.engine import (BLOCK_STUDY, CALIBRATE_THEN_CAMPAIGN, SerialBackend,
                          SharedMemoryBackend, StageSpec, StudySpec, run_study)

#: Entropy of the case generator: fixed so the ~20 cases are stable across
#: runs (reproducible failures) while still randomly covering the spec space.
CASE_ENTROPY = 20200309

#: Blocks small enough that a per-case campaign stays fast.
SMALL_BLOCKS = ("offset_compensation", "vcm_generator", "preamplifier",
                "rs_latch", "comparator_latch", "sc_array")
#: Blocks small enough to exhaust in a randomized case.
EXHAUSTIVE_BLOCKS = ("offset_compensation", "vcm_generator")


def _random_cases():
    rng = np.random.default_rng(CASE_ENTROPY)
    kinds = ["campaign"] * 10 + ["calibration"] * 4 + ["yield"] * 3 + \
        ["pipeline"] * 3 + ["block-study"] * 3
    cases = []
    for index, kind in enumerate(kinds):
        case = {"kind": kind, "seed": int(rng.integers(0, 2 ** 31))}
        if kind == "campaign":
            case["exhaustive"] = bool(rng.integers(2))
            blocks = EXHAUSTIVE_BLOCKS if case["exhaustive"] else SMALL_BLOCKS
            case["block"] = blocks[int(rng.integers(len(blocks)))]
            case["n_samples"] = int(rng.integers(5, 13))
            case["stop_on_detection"] = bool(rng.integers(2))
        elif kind == "calibration":
            case["n_mc"] = int(rng.integers(3, 6))
            case["k"] = float(rng.integers(3, 7))
        elif kind == "yield":
            case["k_values"] = tuple(
                float(k) for k in sorted(rng.uniform(2.0, 6.0, size=3)))
        elif kind == "pipeline":
            case["block"] = SMALL_BLOCKS[int(rng.integers(len(SMALL_BLOCKS)))]
            case["n_samples"] = int(rng.integers(5, 10))
        else:  # block-study: a random 2-block sweep, LWRS + exhaustive mix
            picks = rng.choice(len(SMALL_BLOCKS), size=2, replace=False)
            case["blocks"] = [SMALL_BLOCKS[int(i)] for i in picks]
            case["n_samples"] = int(rng.integers(5, 10))
            case["threshold"] = int(rng.integers(10, 40))
        case["id"] = f"{kind}-{index}"
        cases.append(case)
    return cases


CASES = _random_cases()

#: Serial baselines, memoized per case so each is computed once for both
#: pool-backend parametrizations.
_SERIAL_BASELINE = {}


def _campaign_key(result):
    return [(r.defect.defect_id, r.detected, r.detecting_invariance,
             r.detection_cycle, r.cycles_run, r.modeled_sim_time)
            for r in result.records]


def _report_counts(report):
    return (report.n_tasks, report.n_executed, report.n_cache_hits,
            report.n_failed, report.n_skipped)


def case_spec(case, batch_size=1):
    """The study one randomized case runs (shared with the telemetry
    suite's event-stream equivalence)."""
    kind = case["kind"]
    seed = case["seed"]
    if kind == "campaign":
        # One block, LWRS below any universe size unless exhaustive.
        return CALIBRATE_THEN_CAMPAIGN.override({
            "seed": seed, "calibrate.n_monte_carlo": 3,
            "campaign.blocks": [case["block"]],
            "campaign.samples": case["n_samples"],
            "campaign.exhaustive": case["exhaustive"],
            "campaign.exhaustive_threshold": 0,
            "campaign.stop_on_detection": case["stop_on_detection"],
            "campaign.batch_size": batch_size})
    if kind == "calibration":
        return StudySpec(name="calibration", seed=seed, stages=(
            StageSpec(stage="calibrate", params={"n_monte_carlo": case["n_mc"]}),
            StageSpec(stage="windows", after=("calibrate",),
                      params={"k": case["k"]})))
    if kind == "yield":
        return StudySpec(name="yield", seed=seed, stages=(
            StageSpec(stage="calibrate", params={"n_monte_carlo": 3}),
            StageSpec(stage="yield", after=("calibrate",),
                      params={"k_values": list(case["k_values"])})))
    if kind == "pipeline":
        # The dependency-graph (stream-mode) path of every backend.
        return CALIBRATE_THEN_CAMPAIGN.override({
            "seed": seed, "calibrate.n_monte_carlo": 3,
            "campaign.blocks": [case["block"]],
            "campaign.samples": case["n_samples"]})
    return BLOCK_STUDY.override({
        "seed": seed, "calibrate.n_monte_carlo": 3,
        "campaign.blocks": case["blocks"],
        "campaign.samples": case["n_samples"],
        "campaign.exhaustive_threshold": case["threshold"],
        "campaign.batch_size": batch_size})


def _run_case(case, backend, batch_size=1):
    """Execute one randomized spec; return its full comparable signature."""
    kind = case["kind"]
    outcome = run_study(case_spec(case, batch_size), backend=backend)
    if kind == "campaign":
        result = outcome.results[case["block"]]
        report = result.block_report(case["block"])
        return {"records": _campaign_key(result),
                "detections": result.detections_by_invariance(),
                "coverage": (report.coverage.value,
                             report.coverage.ci_half_width),
                "counts": _report_counts(outcome.report)}
    if kind == "calibration":
        calibration = outcome.calibration
        return {"pools": outcome.stage_results("calibrate"),
                "windows": (calibration.sigmas, calibration.means,
                            calibration.deltas)}
    if kind == "yield":
        return {"points": outcome.yield_points}
    if kind == "pipeline":
        result = outcome.results[case["block"]]
        return {"windows": (outcome.calibration.sigmas,
                            outcome.calibration.means,
                            outcome.calibration.deltas),
                "records": _campaign_key(result),
                "counts": _report_counts(outcome.report)}
    # block-study: per-block windows, detections and coverage of a multi-
    # block sweep must be bit-identical whatever backend runs the graph.
    return {"windows": {block: (cal.sigmas, cal.means, cal.deltas)
                        for block, cal in outcome.calibrations.items()},
            "records": {block: _campaign_key(result)
                        for block, result in outcome.results.items()},
            "coverage": {block: (summary["coverage"],
                                 summary["ci_half_width"],
                                 summary["n_detected"])
                         for block, summary in outcome.summaries.items()},
            "counts": _report_counts(outcome.report)}


def _pool(backend_name, cli_backend):
    if backend_name == "spawn":
        return SharedMemoryBackend(max_workers=2, mp_context="spawn")
    return cli_backend(backend_name)


#: Cases whose second pool run uses a ``spawn`` context instead of the
#: ``fork`` pool again: one calibration, yield and pipeline graph.
SPAWN_CASES = ("calibration-10", "yield-14", "pipeline-17")

POOL_RUNS = [(case, "spawn" if case["id"] in SPAWN_CASES else "multiprocess")
             for case in CASES] + [(case, "shm") for case in CASES]


@pytest.mark.parametrize("case,backend_name", POOL_RUNS,
                         ids=[f"{case['id']}-{name}"
                              for case, name in POOL_RUNS])
def test_pool_backend_matches_serial(case, backend_name, cli_backend):
    if case["id"] not in _SERIAL_BASELINE:
        _SERIAL_BASELINE[case["id"]] = _run_case(
            case, SerialBackend())
    backend = _pool(backend_name, cli_backend)
    assert _run_case(case, backend) == \
        _SERIAL_BASELINE[case["id"]]


#: Batch sizes exercised by the batched equivalence cases.  The large value
#: always exceeds a case's sampled universe, i.e. one task per block.
BATCH_SIZES = (1, 7, 10_000)

#: Randomized campaign and block-study specs re-run batched: same seeded
#: generator as CASES, so the batched runs face the same spec space.
BATCH_CASES = [c for c in CASES if c["kind"] == "campaign"][:2] + \
    [c for c in CASES if c["kind"] == "block-study"][:1]


def _strip_counts(signature):
    """Drop the engine-report task counts from a case signature.

    Batching intentionally changes the task decomposition (one task per
    batch), so the per-task counts differ from the unbatched baseline; the
    per-defect results -- records, detections, windows, coverage -- must
    not.  Task/item reconciliation is covered by the telemetry suite.
    """
    return {key: value for key, value in signature.items() if key != "counts"}


@pytest.mark.parametrize("backend_name", ["serial", "spawn", "shm"])
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("case", BATCH_CASES,
                         ids=[c["id"] for c in BATCH_CASES])
def test_batched_run_matches_unbatched_serial(case, batch_size, backend_name,
                                              cli_backend):
    """Campaign results are bit-identical for every (batch size, backend)."""
    if case["id"] not in _SERIAL_BASELINE:
        _SERIAL_BASELINE[case["id"]] = _run_case(
            case, SerialBackend())
    batched = _run_case(case, _pool(backend_name, cli_backend),
                        batch_size=batch_size)
    assert _strip_counts(batched) == \
        _strip_counts(_SERIAL_BASELINE[case["id"]])


# ---------------------------------------------------------------- socket
#: One randomized case per driver kind, re-run over the socket backend.
#: The backend ships work to out-of-process workers over TCP; because every
#: task carries its own SeedSequence-derived seed material, the results
#: must be bit-identical to the serial baseline whatever worker executes
#: (or re-executes) them.
SOCKET_CASES = [next(c for c in CASES if c["kind"] == kind)
                for kind in ("campaign", "calibration", "yield",
                             "pipeline", "block-study")]


@pytest.fixture(scope="module")
def socket_backend():
    from repro.service import SocketBackend
    with SocketBackend("tcp:127.0.0.1:0", spawn_workers=2) as backend:
        yield backend


@pytest.mark.parametrize("case", SOCKET_CASES,
                         ids=[c["id"] for c in SOCKET_CASES])
def test_socket_backend_matches_serial(case, socket_backend):
    if case["id"] not in _SERIAL_BASELINE:
        _SERIAL_BASELINE[case["id"]] = _run_case(
            case, SerialBackend())
    assert _run_case(case, socket_backend) == \
        _SERIAL_BASELINE[case["id"]]


def test_socket_backend_with_worker_death_matches_serial():
    """A worker dying mid-run only costs a requeue, never a result change:
    the victim's in-flight task re-executes on a survivor with the same
    per-task seed, so the full signature stays bit-identical."""
    from repro.service import SocketBackend
    case = SOCKET_CASES[0]  # a campaign: the largest task population
    if case["id"] not in _SERIAL_BASELINE:
        _SERIAL_BASELINE[case["id"]] = _run_case(
            case, SerialBackend())
    with SocketBackend("tcp:127.0.0.1:0") as backend:
        backend.spawn_worker(crash_after=2)  # dies on its third task
        backend.spawn_worker()
        assert _run_case(case, backend) == \
            _SERIAL_BASELINE[case["id"]]
