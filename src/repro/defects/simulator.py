"""Defect-simulation campaign runner (the Tessent DefectSim equivalent).

The campaign runner reproduces the automated workflow of the paper's Section V
on top of the behavioral IP model:

1. extract the defect universe from the structural hierarchy,
2. pick the defects to simulate -- exhaustively or by Likelihood-Weighted
   Random Sampling (LWRS),
3. for each defect: inject it, run the SymBIST test (optionally with
   stop-on-detection), record whether and when it was detected, remove it,
4. aggregate the results into per-block and whole-IP likelihood-weighted
   coverage with 95 % confidence intervals -- the content of Table I.

Because the underlying electrical engine is a behavioral model rather than a
SPICE netlist, wall-clock times are not comparable to the paper's
"defect simulation time" column.  The runner therefore reports both the
*real* (``time.perf_counter``) wall-clock time and a *modelled*
transistor-level simulation time: the number of test clock cycles each defect
simulation had to cover multiplied by a calibrated seconds-per-cycle
constant, so that the effect of stop-on-detection on the campaign cost is
reproduced.

A campaign run is a plain in-process loop: each block's ordered defect
selection goes to :meth:`DefectCampaign.simulate_defect_batch`, which
evaluates it against a defect-free golden trace.  The study layer
(:mod:`repro.engine.spec`) runs the very same per-batch function as its
``campaign`` stage tasks (:func:`defect_batch_tasks` builds them, and
:func:`_defect_worker` executes them), which is where pool execution,
result caching and tracing live -- with byte-identical records.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..adc.sar_adc import SarAdc
from ..circuit.components import PullDirection
from ..circuit.errors import CoverageError
from ..core.controller import SymBistController, SymBistResult
from ..core.stimulus import SymBistStimulus
from ..core.test_time import CheckingMode
from ..core.window_comparator import WindowComparator
from ..engine import ResultCodec, Task
from .batching import BatchedDefectEvaluator
from .coverage import CoverageEstimate, exhaustive_coverage, lwrs_coverage
from .injection import DefectInjector
from .likelihood import LikelihoodModel
from .model import Defect, DefectKind
from .sampling import (SamplingPlan, batch_spans, per_block_selection,
                       select_defects)
from .universe import DefectUniverse, build_defect_universe

#: Modelled transistor-level simulation cost of one test clock cycle, in
#: seconds.  Calibrated so that a campaign of ~100 defects on the whole A/M-S
#: part lands in the same range as the paper's Table I "defect simulation
#: time" column; only relative comparisons (with/without stop-on-detection,
#: block versus block) are meaningful.
MODEL_SECONDS_PER_CYCLE = 0.55


@dataclass
class DefectSimulationRecord:
    """Outcome of simulating one defect."""

    defect: Defect
    detected: bool
    detecting_invariance: Optional[str]
    detection_cycle: Optional[int]
    cycles_run: int
    modeled_sim_time: float
    wall_time: float

    @property
    def block_path(self) -> str:
        return self.defect.block_path


@dataclass
class BlockCoverageReport:
    """One row of the Table I reproduction."""

    block_path: str
    n_defects: int
    n_simulated: int
    modeled_sim_time: float
    wall_time: float
    coverage: CoverageEstimate


@dataclass
class CampaignResult:
    """Everything produced by one defect-simulation campaign."""

    records: List[DefectSimulationRecord]
    universe: DefectUniverse
    plan: SamplingPlan
    stop_on_detection: bool

    # ----------------------------------------------------------------- access
    @property
    def n_simulated(self) -> int:
        return len(self.records)

    def timing_summary(self) -> Dict[str, float]:
        """Real and modelled campaign cost.

        Both sum the per-record costs of the simulations that *produced* the
        records -- for records a study replayed from its cache that is the
        original (cold-run) cost.
        """
        return {
            "wall_time": sum(r.wall_time for r in self.records),
            "modeled_sim_time": sum(r.modeled_sim_time for r in self.records),
        }

    @property
    def n_detected(self) -> int:
        return sum(1 for r in self.records if r.detected)

    def records_for_block(self, block_path: str) -> List[DefectSimulationRecord]:
        return [r for r in self.records if r.block_path == block_path]

    def undetected_defects(self) -> List[Defect]:
        return [r.defect for r in self.records if not r.detected]

    def detections_by_invariance(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            if record.detected and record.detecting_invariance:
                counts[record.detecting_invariance] = \
                    counts.get(record.detecting_invariance, 0) + 1
        return counts

    # --------------------------------------------------------------- coverage
    def _coverage(self, records: Sequence[DefectSimulationRecord],
                  universe: DefectUniverse) -> CoverageEstimate:
        detected = [r.detected for r in records]
        if self.plan.exhaustive:
            return exhaustive_coverage(detected, [r.defect for r in records])
        return lwrs_coverage(detected, universe_size=len(universe),
                             universe_likelihood=universe.total_likelihood)

    def block_report(self, block_path: str) -> BlockCoverageReport:
        """Coverage report of one block (one row of Table I)."""
        records = self.records_for_block(block_path)
        if not records:
            raise CoverageError(
                f"the campaign simulated no defect in block {block_path!r}")
        sub_universe = self.universe.by_block(block_path)
        return BlockCoverageReport(
            block_path=block_path,
            n_defects=len(sub_universe),
            n_simulated=len(records),
            modeled_sim_time=sum(r.modeled_sim_time for r in records),
            wall_time=sum(r.wall_time for r in records),
            coverage=self._coverage(records, sub_universe))

    def per_block_reports(self) -> List[BlockCoverageReport]:
        reports = []
        for block_path in self.universe.block_paths():
            if self.records_for_block(block_path):
                reports.append(self.block_report(block_path))
        return reports

    def overall_report(self) -> BlockCoverageReport:
        """Coverage of the complete A/M-S part (last row of Table I)."""
        if not self.records:
            raise CoverageError("the campaign produced no records")
        return BlockCoverageReport(
            block_path="complete_ams_part",
            n_defects=len(self.universe),
            n_simulated=len(self.records),
            modeled_sim_time=sum(r.modeled_sim_time for r in self.records),
            wall_time=sum(r.wall_time for r in self.records),
            coverage=self._coverage(self.records, self.universe))


def adc_fingerprint(adc: SarAdc, hierarchy: Any) -> str:
    """Content fingerprint of the device under test, as it is *now*.

    Taken per run (after ``clear_defects``) so campaigns against different IP
    states never share cache artifacts.  Two pieces fully determine
    per-defect outcomes (given the test spec): the structural hierarchy
    (device parameters and defect states) and each block's sampled behavioral
    parameters.  Transient simulation state (latch memories) is deliberately
    excluded -- it drifts between runs without affecting results, since every
    test run resets it.  Module-level so the ``calibrate -> campaign``
    pipeline (:mod:`repro.engine.pipeline`) can fingerprint the IP without a
    calibrated :class:`DefectCampaign` in hand.
    """
    behavioral = [(blk.block_path, sorted(blk.variation_state().items()))
                  for blk in adc.analog_blocks]
    state: Any = (hierarchy, behavioral)
    dut = getattr(adc, "dut", None)
    if dut is not None and not dut.is_default:
        # Non-default DUT variants fold the spec fingerprint in, so two
        # variants that happen to share structure/behavior never share
        # cached artifacts.  The default spec keeps the historical bytes,
        # which is what lets pre-refactor caches replay bit-identically.
        state = (hierarchy, behavioral, dut.fingerprint())
    return hashlib.sha256(pickle.dumps(state, protocol=4)).hexdigest()[:16]


# --------------------------------------------------------------------- engine
#: Per-process campaign state of the study layer's campaign-stage workers.
#: The first task a process runs builds the campaign from the stage context
#: and keeps it here, keyed by the run token, so later tasks reuse its
#: hierarchy and injector (fork-started pool workers inherit the dict);
#: :meth:`repro.engine.StudyPlan.run` drops the entry after the run.
_WORKER_STATE: Dict[str, "DefectCampaign"] = {}


def _worker_campaign(context: Mapping[str, Any],
                     deltas: Mapping[str, float]) -> "DefectCampaign":
    token = context["token"]
    campaign = _WORKER_STATE.get(token)
    if campaign is None:
        campaign = DefectCampaign(
            adc=context["adc"], deltas=dict(deltas),
            stimulus=context["stimulus"], mode=context["mode"],
            stop_on_detection=context["stop_on_detection"],
            likelihood_model=context["likelihood_model"],
            seconds_per_cycle=context["seconds_per_cycle"])
        _WORKER_STATE.clear()
        _WORKER_STATE[token] = campaign
    return campaign


def _defect_worker(context: Mapping[str, Any], task: Task,
                   rng: np.random.Generator, inputs: Mapping[str, Any]
                   ) -> List["DefectSimulationRecord"]:
    """Engine worker of every campaign task: evaluate one defect batch.

    The comparison windows come from the task's windows parent, reordered
    to the canonical invariance order so the checker order -- hence any
    stop-on-detection tie-break -- never depends on the JSON key order of a
    cache-replayed windows artifact.  The per-process campaign is keyed by
    the run token alone, and different blocks' windows may differ
    (per-block k overrides), so the delta table is refreshed per task.
    """
    windows = inputs[task.depends_on[0]]["deltas"]
    deltas = {name: windows[name]
              for name in context["invariance_names"] if name in windows}
    campaign = _worker_campaign(context, deltas)
    campaign.deltas = dict(deltas)
    return campaign.simulate_defect_batch(
        task.payload, fingerprint=context["fingerprint"])


def defect_batch_tasks(stage: str, block: str, defects: Sequence[Defect],
                       batch_size: int, key: Optional[Mapping[str, Any]],
                       depends_on: Sequence[str] = ()) -> List[Task]:
    """The campaign tasks of one block's ordered defect selection.

    The single builder of the study layer's defect-campaign tasks: every
    campaign task is a golden-trace batch.
    :func:`~repro.defects.sampling.batch_spans` cuts the selection into
    contiguous ``[start, stop)`` spans (``batch_size=1`` gives batches of
    one); each becomes one task with id
    ``<stage>/<block>/<start>-<stop>``, the ordered member list as payload
    and ``weight`` = its member count.  Defect evaluation is deterministic,
    so the tasks carry no seed.

    ``key`` holds the cache-key fields the block's batches share --
    ``adc`` (fingerprint), ``windows`` (what the comparison windows derive
    from), ``mode``, ``stop_on_detection`` and ``seconds_per_cycle``, plus
    any annotations -- and each batch's spec adds the one campaign driver
    ``symbist-defect-batch`` and its ordered members (id and likelihood:
    cached records decode the full :class:`Defect`, likelihood included).
    ``key=None`` builds uncacheable tasks.
    """
    tasks = []
    for start, stop in batch_spans(len(defects), batch_size):
        members = list(defects[start:stop])
        spec = None
        if key is not None:
            spec = {"driver": "symbist-defect-batch",
                    "members": [{"defect_id": d.defect_id,
                                 "likelihood": d.likelihood}
                                for d in members],
                    **key}
        tasks.append(Task(task_id=f"{stage}/{block}/{start}-{stop}",
                          payload=members, spec=spec, deterministic=True,
                          group=block, depends_on=tuple(depends_on),
                          weight=len(members)))
    return tasks


def defect_to_jsonable(defect: Defect) -> Dict[str, Any]:
    """JSON rendering of one :class:`Defect`, shared by every cache codec
    that stores defects (per-defect campaign records, escape analyses)."""
    return {
        "defect_id": defect.defect_id,
        "block_path": defect.block_path,
        "device_name": defect.device_name,
        "kind": defect.kind.value,
        "terminals": list(defect.terminals),
        "pull": defect.pull.value if defect.pull is not None else None,
        "likelihood": defect.likelihood,
    }


def defect_from_jsonable(raw: Mapping[str, Any]) -> Defect:
    """Inverse of :func:`defect_to_jsonable`."""
    return Defect(
        defect_id=raw["defect_id"], block_path=raw["block_path"],
        device_name=raw["device_name"], kind=DefectKind(raw["kind"]),
        terminals=tuple(raw["terminals"]),
        pull=PullDirection(raw["pull"]) if raw["pull"] is not None else None,
        likelihood=raw["likelihood"])


def _record_to_jsonable(record: DefectSimulationRecord) -> Dict[str, Any]:
    return {
        "defect": defect_to_jsonable(record.defect),
        "detected": record.detected,
        "detecting_invariance": record.detecting_invariance,
        "detection_cycle": record.detection_cycle,
        "cycles_run": record.cycles_run,
        "modeled_sim_time": record.modeled_sim_time,
        "wall_time": record.wall_time,
    }


def _record_from_jsonable(data: Mapping[str, Any]) -> DefectSimulationRecord:
    return DefectSimulationRecord(
        defect=defect_from_jsonable(data["defect"]), detected=data["detected"],
        detecting_invariance=data["detecting_invariance"],
        detection_cycle=data["detection_cycle"],
        cycles_run=data["cycles_run"],
        modeled_sim_time=data["modeled_sim_time"],
        wall_time=data["wall_time"])


def _records_to_jsonable(records: Sequence[DefectSimulationRecord]
                         ) -> List[Dict[str, Any]]:
    return [_record_to_jsonable(record) for record in records]


def _records_from_jsonable(data: Sequence[Mapping[str, Any]]
                           ) -> List[DefectSimulationRecord]:
    return [_record_from_jsonable(raw) for raw in data]


#: Cache codec turning a campaign task's record list into a JSON artifact
#: and back.
RECORD_CODEC = ResultCodec(encode=_records_to_jsonable,
                           decode=_records_from_jsonable)


class DefectCampaign:
    """Runs SymBIST defect-simulation campaigns on the SAR ADC IP."""

    def __init__(self, adc: Optional[SarAdc] = None,
                 deltas: Optional[Dict[str, float]] = None,
                 stimulus: Optional[SymBistStimulus] = None,
                 mode: CheckingMode = CheckingMode.SEQUENTIAL,
                 stop_on_detection: bool = True,
                 likelihood_model: Optional[LikelihoodModel] = None,
                 seconds_per_cycle: float = MODEL_SECONDS_PER_CYCLE) -> None:
        if deltas is None:
            raise CoverageError(
                "a calibrated delta table is required (run "
                "repro.core.calibrate_windows first)")
        self.adc = adc or SarAdc()
        self.deltas = dict(deltas)
        self.stimulus = stimulus or SymBistStimulus()
        self.mode = mode
        self.stop_on_detection = stop_on_detection
        self.seconds_per_cycle = seconds_per_cycle
        self.hierarchy = self.adc.build_hierarchy()
        self.likelihood_model = likelihood_model
        self.injector = DefectInjector(self.hierarchy)
        #: Batched-evaluation state, keyed by ADC fingerprint so a golden
        #: trace is never reused across different IP states.
        self._batch_evaluators: Dict[str, BatchedDefectEvaluator] = {}

    @cached_property
    def universe(self) -> DefectUniverse:
        """The IP's defect universe, enumerated on first use: a study's
        campaign workers only evaluate the defects their tasks carry."""
        return build_defect_universe(self.hierarchy, self.likelihood_model)

    def _adc_fingerprint(self) -> str:
        return adc_fingerprint(self.adc, self.hierarchy)

    def _batch_evaluator(self, fingerprint: Optional[str] = None
                         ) -> BatchedDefectEvaluator:
        """The golden-trace evaluator for the ADC's current (clean) state.

        ``fingerprint`` is that state's :func:`adc_fingerprint` when the
        caller already knows it (a campaign run takes it once, before
        dispatch); it is computed here otherwise.
        """
        if fingerprint is None:
            fingerprint = self._adc_fingerprint()
        evaluator = self._batch_evaluators.get(fingerprint)
        if evaluator is None:
            evaluator = BatchedDefectEvaluator(
                adc=self.adc, stimulus=self.stimulus, deltas=self.deltas,
                mode=self.mode, stop_on_detection=self.stop_on_detection)
            self._batch_evaluators.clear()
            self._batch_evaluators[fingerprint] = evaluator
        elif evaluator.deltas != self.deltas:
            # Block-study graphs refresh the campaign's delta table per task
            # (per-block k overrides); the golden trace is window-independent.
            evaluator.set_deltas(self.deltas)
        return evaluator

    # ------------------------------------------------------------------- runs
    def _build_controller(self) -> SymBistController:
        checkers = [WindowComparator(name=name, delta=delta)
                    for name, delta in self.deltas.items()]
        return SymBistController(self.adc, checkers, stimulus=self.stimulus,
                                 mode=self.mode,
                                 stop_on_detection=self.stop_on_detection)

    def simulate_defect(self, defect: Defect) -> DefectSimulationRecord:
        """Inject one defect, run the full SymBIST test, record the outcome.

        The full re-simulation: the fallback of :meth:`simulate_defect_batch`
        for defects that are not local to one block, and the oracle the
        batched evaluation is tested against.
        """
        start = time.perf_counter()
        with self.injector.injected(defect):
            result = self._build_controller().run()
        wall = time.perf_counter() - start
        detecting = result.first_detection[0] if result.first_detection else None
        detection_cycle = result.first_detection[1] if result.first_detection \
            else None
        return DefectSimulationRecord(
            defect=defect,
            detected=result.detected,
            detecting_invariance=detecting,
            detection_cycle=detection_cycle,
            cycles_run=result.cycles_run,
            modeled_sim_time=result.cycles_run * self.seconds_per_cycle,
            wall_time=wall)

    def simulate_defect_batch(self, defects: Sequence[Defect],
                              fingerprint: Optional[str] = None
                              ) -> List[DefectSimulationRecord]:
        """Evaluate a batch of defects against the shared golden trace.

        Per-defect results are bit-identical to :meth:`simulate_defect`: a
        defect local to one block re-evaluates only that block's stage and
        its downstream cone against the cached defect-free trace
        (:mod:`repro.defects.batching`); a non-local defect falls back to
        the full re-simulation.  Only ``wall_time`` -- which is measured,
        never compared -- differs.  ``fingerprint`` is the clean ADC's
        :func:`adc_fingerprint`, when the caller already has it.
        """
        evaluator = self._batch_evaluator(fingerprint)
        records: List[DefectSimulationRecord] = []
        for defect in defects:
            if not evaluator.is_local(defect):
                records.append(self.simulate_defect(defect))
                continue
            start = time.perf_counter()
            with self.injector.injected(defect):
                outcome = evaluator.evaluate(defect)
            wall = time.perf_counter() - start
            detected, detecting, detection_cycle, cycles_run = outcome
            records.append(DefectSimulationRecord(
                defect=defect,
                detected=detected,
                detecting_invariance=detecting,
                detection_cycle=detection_cycle,
                cycles_run=cycles_run,
                modeled_sim_time=cycles_run * self.seconds_per_cycle,
                wall_time=wall))
        return records

    def run(self, plan: Optional[SamplingPlan] = None,
            rng: Optional[np.random.Generator] = None,
            blocks: Optional[Sequence[str]] = None) -> CampaignResult:
        """Run a campaign over the whole IP or a subset of blocks.

        Parameters
        ----------
        plan:
            Sampling plan; defaults to exhaustive simulation.
        rng:
            Random generator used by LWRS sampling.
        blocks:
            Optional restriction to a list of block paths (used to produce the
            per-block rows of Table I with per-block LWRS budgets).
        """
        plan = plan or SamplingPlan(exhaustive=True)
        universe = self.universe
        if blocks is not None:
            selected = [d for d in universe.defects if d.block_path in set(blocks)]
            universe = DefectUniverse(selected)
        if len(universe) == 0:
            raise CoverageError("no defects to simulate for the requested blocks")
        defects = select_defects(universe, plan, rng)

        # Each block's defects are one golden-trace batch; the records go
        # back in selection order afterwards.
        positions: Dict[str, List[int]] = {}
        for index, defect in enumerate(defects):
            positions.setdefault(defect.block_path, []).append(index)
        block_records = self._simulate_blocks(
            {block: [defects[i] for i in indices]
             for block, indices in positions.items()})
        records: List[Any] = [None] * len(defects)
        for block, indices in positions.items():
            for index, record in zip(indices, block_records[block]):
                records[index] = record
        return CampaignResult(records=records, universe=universe, plan=plan,
                              stop_on_detection=self.stop_on_detection)

    def _simulate_blocks(self, selection: Mapping[str, Sequence[Defect]]
                         ) -> Dict[str, List[DefectSimulationRecord]]:
        """Simulate a per-block defect selection, one batch per block.

        Clears the IP and takes its fingerprint once, so every block's
        batch shares one golden trace -- the loop shared by :meth:`run` and
        :meth:`run_per_block`.  Returns each block's records in selection
        order.
        """
        self.adc.clear_defects()
        fingerprint = self._adc_fingerprint()
        return {block: self.simulate_defect_batch(defects,
                                                  fingerprint=fingerprint)
                for block, defects in selection.items()}

    def run_per_block(self, n_samples_per_block: int,
                      exhaustive_threshold: Optional[int] = None,
                      seed: Optional[Any] = None,
                      blocks: Optional[Sequence[str]] = None,
                      exhaustive: bool = False
                      ) -> Dict[str, CampaignResult]:
        """Run every block's campaign, like the per-block rows of Table I.

        Blocks whose universe is not larger than ``exhaustive_threshold`` (or
        ``n_samples_per_block`` when the threshold is omitted) are simulated
        exhaustively, mirroring the paper where small blocks have
        ``#defects == #defects simulated``; larger blocks use LWRS.

        Each block's LWRS draws come from a generator derived from the root
        ``seed`` and the block path
        (:func:`~repro.defects.sampling.block_seed_sequence`), so results
        are bit-identical for any block order or block subset -- and equal
        to the ``campaign`` stage of a study with that root seed.

        Parameters
        ----------
        seed:
            Root seed material (``int`` or ``SeedSequence``) of the
            per-block draws; defaults to 0.
        blocks / exhaustive:
            Optional restriction to a block subset / force exhaustive
            simulation of every block (the ``campaign.blocks`` and
            ``campaign.exhaustive`` study parameters).
        """
        selection = per_block_selection(
            self.universe, 0 if seed is None else seed, n_samples_per_block,
            exhaustive_threshold=exhaustive_threshold, blocks=blocks,
            exhaustive=exhaustive)
        block_records = self._simulate_blocks(
            {block: defects for block, (_, defects) in selection.items()})
        return {block: CampaignResult(
                    records=block_records[block],
                    universe=self.universe.by_block(block), plan=plan,
                    stop_on_detection=self.stop_on_detection)
                for block, (plan, _) in selection.items()}
