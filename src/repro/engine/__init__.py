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
  (the process pool, whose campaign context is pickled once into a
  shared-memory segment instead of re-shipped per task);
* :mod:`repro.engine.executor` -- :class:`CampaignEngine`, which adds
  deterministic per-task seeding (``SeedSequence`` children by task index;
  results do not depend on worker count or completion order),
  content-addressed result caching, one topological scheduler for every
  task graph (no stage barriers; failed tasks skip their descendants;
  cached parents unblock children immediately) and :class:`CampaignReport`
  instrumentation;
* :mod:`repro.engine.cache` -- :class:`ResultCache`, the JSON-on-disk
  artifact store keyed by task spec + seed + code version, with optional
  ``max_bytes``/``max_age`` LRU eviction;
* :mod:`repro.engine.pipeline` -- the :class:`Pipeline` API (named stages
  over one task graph) and the stage workers of the built-in studies;
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
* :mod:`repro.engine.cli` -- the ``repro-campaign`` command-line entry
  point, including ``repro-campaign run STUDY.toml`` for arbitrary specs.

The drivers in :mod:`repro.analysis.monte_carlo`,
:mod:`repro.core.calibration`, :mod:`repro.defects.simulator` and
:mod:`repro.analysis.yield_loss` all route their work through this engine;
passing ``backend=SharedMemoryBackend(max_workers=N)`` and/or a
:class:`ResultCache` to any of them parallelises/caches that workload without
changing its results.
"""

from .backends import (ExecutionBackend, PayloadReport, SerialBackend,
                       SharedMemoryBackend, WorkStream)
from .cache import (MISS, ResultCache, callable_token, canonical_json,
                    factory_token)
from .executor import (CampaignEngine, CampaignReport, EngineRun,
                       IDENTITY_CODEC, ResultCodec, STATUS_CACHED,
                       STATUS_EXECUTED, STATUS_FAILED, STATUS_SKIPPED,
                       TaskOutcome)
from .pipeline import Pipeline, PipelineResult, PipelineStage
from .registry import (StageDefinition, StageParam, available_stages,
                       register_stage, stage_definition)
from .spec import (BLOCK_STUDY, CALIBRATE_THEN_CAMPAIGN, CANNED_STUDIES,
                   StageSpec, StudyOutcome, StudyPlan, StudySpec,
                   VariantSpec, YIELD_LOSS_STUDY, build_study, load_study,
                   run_study)
from .task import Task, TaskGraph
from .telemetry import (ChromeTraceSink, EVENT_TYPES, JsonlTraceSink,
                        MetricsRegistry, MetricsSink, ProgressSink, TaskSpan,
                        TelemetryBus, TelemetryEvent, TelemetrySink,
                        chrome_trace, follow_trace, read_trace)
from .trace import TraceSummary, format_summary, summarize_trace

__all__ = [
    "BLOCK_STUDY", "CALIBRATE_THEN_CAMPAIGN", "CANNED_STUDIES",
    "CampaignEngine",
    "CampaignReport", "ChromeTraceSink", "EVENT_TYPES", "EngineRun",
    "ExecutionBackend", "IDENTITY_CODEC", "JsonlTraceSink", "MISS",
    "MetricsRegistry", "MetricsSink", "PayloadReport",
    "Pipeline", "PipelineResult", "PipelineStage", "ProgressSink",
    "ResultCache", "ResultCodec",
    "STATUS_CACHED", "STATUS_EXECUTED", "STATUS_FAILED", "STATUS_SKIPPED",
    "SerialBackend", "SharedMemoryBackend", "StageDefinition", "StageParam",
    "StageSpec", "StudyOutcome", "StudyPlan", "StudySpec", "Task",
    "VariantSpec",
    "TaskGraph", "TaskOutcome", "TaskSpan", "TelemetryBus", "TelemetryEvent",
    "TelemetrySink", "TraceSummary", "WorkStream", "YIELD_LOSS_STUDY",
    "available_stages", "build_study",
    "callable_token", "canonical_json", "chrome_trace", "factory_token",
    "follow_trace", "format_summary",
    "load_study", "read_trace", "register_stage", "run_study",
    "stage_definition", "summarize_trace",
]
