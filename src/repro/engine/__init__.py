"""Campaign-execution engine: sharded workers, seeding, caching, pipelines.

Every heavyweight workload of the reproduction -- window calibration, defect
campaigns (Table I), Monte Carlo analyses, the yield-loss-versus-k sweep --
decomposes into many simulations, some independent and some consuming other
simulations' results.  This subpackage is the shared infrastructure that
executes such workloads:

* :mod:`repro.engine.task` -- :class:`Task`/:class:`TaskGraph`, describing
  the units of work and the dependency edges between them (a DAG by
  construction: parents are added before children);
* :mod:`repro.engine.backends` -- pluggable executors behind one
  incremental ``stream`` interface: :class:`SerialBackend` (default,
  bit-identical to the historical loops) and :class:`SharedMemoryBackend`
  (the process pool, whose campaign context is pickled once and handed to
  the pool initializer instead of re-shipped per task);
* :mod:`repro.engine.executor` -- :class:`CampaignEngine`, which adds
  deterministic per-task seeding (``SeedSequence`` children by task index;
  results do not depend on worker count or completion order),
  content-addressed result caching, one topological scheduler for every
  task graph (no stage barriers; failed tasks skip their descendants;
  cached parents unblock children immediately) and the run's
  :class:`CampaignReport`;
* :mod:`repro.engine.cache` -- :class:`ResultCache`, the JSON-on-disk
  artifact store keyed by task spec + seed + code version, with optional
  ``max_bytes``/``max_age`` LRU eviction;
* :mod:`repro.engine.pipeline` -- the stage-tagged task graph a compiled
  study runs (private to :class:`StudyPlan`) and the stage workers of the
  built-in stages;
* :mod:`repro.engine.registry` -- the **stage registry**: every composable
  simulation stage (``calibrate``, ``windows``, ``campaign``, ``yield``,
  ``escape``, ``block-summary``) registered under a stable name with a
  typed parameter schema and a graph expander;
* :mod:`repro.engine.spec` -- the **declarative study layer**:
  :class:`StudySpec` documents (TOML/JSON round-trippable) compiled by
  :func:`build_study` against the registry into one task graph, and run
  with :func:`run_study` -- the only study API.  The canned studies are
  :data:`CALIBRATE_THEN_CAMPAIGN` (window calibration + defect campaign),
  :data:`BLOCK_STUDY` (per-block window calibration + every block's defect
  campaign + per-block yield/coverage reductions -- Table I in a single
  engine run) and :data:`YIELD_LOSS_STUDY` (calibration + campaign +
  yield-loss sweep + functional escape analysis); customise them with
  :meth:`StudySpec.override`;
* :mod:`repro.engine.telemetry` -- the :class:`TelemetryBus`, the one way
  to observe a run, with its JSONL trace and progress sinks;
  :mod:`repro.engine.trace` folds a run's events -- live, or read back
  from its JSONL trace -- into its :class:`CampaignReport`;
* :mod:`repro.engine.cli` -- the ``repro-campaign`` command-line entry
  point, including ``repro-campaign run STUDY.toml`` for arbitrary specs.

The model layers (:mod:`repro.core.calibration`,
:mod:`repro.defects.simulator`, :mod:`repro.analysis.yield_loss`) are plain
in-process computations; their per-instance and per-batch functions are the
stage workers of the study graphs.  :meth:`StudyPlan.run` (through its
stage-tagged task graph) is the one caller of :class:`CampaignEngine`: passing
``backend=SharedMemoryBackend(max_workers=N)``, a :class:`ResultCache` or a
:class:`TelemetryBus` to :func:`run_study` parallelises, caches or traces a
study without changing its results.
"""

from .backends import (ExecutionBackend, PayloadReport, SerialBackend,
                       SharedMemoryBackend, WorkStream)
from .cache import (MISS, ResultCache, callable_token, canonical_json,
                    factory_token)
from .executor import (CampaignEngine, EngineRun, IDENTITY_CODEC,
                       ResultCodec, STATUS_CACHED, STATUS_EXECUTED,
                       STATUS_FAILED, STATUS_SKIPPED)
from .registry import (StageDefinition, StageParam, available_stages,
                       register_stage, stage_definition)
from .spec import (BLOCK_STUDY, CALIBRATE_THEN_CAMPAIGN, CANNED_STUDIES,
                   StageSpec, StudyOutcome, StudyPlan, StudySpec,
                   VariantSpec, YIELD_LOSS_STUDY, build_study, load_study,
                   run_study)
from .task import Task, TaskGraph
from .telemetry import (EVENT_TYPES, JsonlTraceSink, ProgressSink, TaskSpan,
                        TelemetryBus, TelemetryEvent, TelemetrySink,
                        chrome_trace, follow_trace, read_trace)
from .trace import CampaignReport, format_summary, summarize_trace

__all__ = [
    "BLOCK_STUDY", "CALIBRATE_THEN_CAMPAIGN", "CANNED_STUDIES",
    "CampaignEngine",
    "CampaignReport", "EVENT_TYPES", "EngineRun",
    "ExecutionBackend", "IDENTITY_CODEC", "JsonlTraceSink", "MISS",
    "PayloadReport", "ProgressSink",
    "ResultCache", "ResultCodec",
    "STATUS_CACHED", "STATUS_EXECUTED", "STATUS_FAILED", "STATUS_SKIPPED",
    "SerialBackend", "SharedMemoryBackend", "StageDefinition", "StageParam",
    "StageSpec", "StudyOutcome", "StudyPlan", "StudySpec", "Task",
    "VariantSpec",
    "TaskGraph", "TaskSpan", "TelemetryBus", "TelemetryEvent",
    "TelemetrySink", "WorkStream", "YIELD_LOSS_STUDY",
    "available_stages", "build_study",
    "callable_token", "canonical_json", "chrome_trace", "factory_token",
    "follow_trace", "format_summary",
    "load_study", "read_trace", "register_stage", "run_study",
    "stage_definition", "summarize_trace",
]
