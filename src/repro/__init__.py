"""SymBIST reproduction: symmetry-based A/M-S BIST on a behavioral SAR ADC IP.

Reproduction of "Symmetry-based A/M-S BIST (SymBIST): Demonstration on a SAR
ADC IP" (Pavlidis, Louerat, Faehn, Kumar, Stratigopoulos -- DATE 2020).

Subpackages
-----------
``repro.circuit``
    Behavioral circuit-simulation substrate: devices, netlists, nodal solver,
    cycle-based transient engine, process variations.
``repro.adc``
    The device under test: a structural + behavioral model of the 65 nm
    10-bit SAR ADC IP (bandgap, reference buffer, sub-DACs, SC array,
    comparator chain, Vcm generator, SAR logic / control).
``repro.core``
    The paper's contribution: the six invariances, the clocked window
    comparator, the counter stimulus, the BIST controller, delta = k*sigma
    calibration, test-time and area models.
``repro.defects``
    Defect model, defect-universe extraction, likelihood weighting, LWRS
    sampling, campaign runner, likelihood-weighted coverage (Table I).
``repro.digital``
    Gate-level substrate and standard digital BIST (scan, ATPG, LFSR/MISR)
    for the purely digital blocks.
``repro.functional_test``
    Functional ADC test baseline (ramp/histogram linearity, sine-fit ENOB,
    servo loop, specification-based detection).
``repro.analysis``
    Statistics helpers, the yield-loss-versus-k model and the functional
    escape analysis.
``repro.engine``
    Campaign-execution engine: task graphs, serial/process-pool backends,
    deterministic per-task seeding, content-addressed result caching, the
    declarative study layer (``StudySpec`` documents compiled against a
    stage registry) and the ``repro-campaign`` CLI (``repro-campaign run
    STUDY.toml``).

Quickstart
----------
>>> import numpy as np
>>> from repro.adc import SarAdc
>>> from repro.core import calibrate_windows, run_symbist
>>> calibration = calibrate_windows(n_monte_carlo=25,
...                                 rng=np.random.default_rng(0))
>>> adc = SarAdc()
>>> result = run_symbist(adc, calibration.deltas)
>>> result.passed
True

Scaling campaigns
-----------------
The model-layer functions (``calibrate_windows``, ``DefectCampaign.run``,
``yield_loss_sweep``) are plain in-process computations.  A parallel, cached
or traced run is a *study*: a declarative :class:`~repro.engine.StudySpec`
graph run through :func:`repro.engine.run_study`, which takes ``backend=``,
``cache=`` and ``telemetry=``:

>>> from repro.engine import (CALIBRATE_THEN_CAMPAIGN, ResultCache,
...                           SharedMemoryBackend, run_study)
>>> spec = CALIBRATE_THEN_CAMPAIGN.override(
...     {"calibrate.n_monte_carlo": 25, "campaign.blocks": ["vcm_generator"]})
>>> outcome = run_study(
...     spec, backend=SharedMemoryBackend(max_workers=4),
...     cache=ResultCache(".repro-cache", namespace="calibration"))

Each unit of work (one Monte Carlo instance, one batch of defect injections
and tests, one ``(k, yield)`` point) is a :class:`~repro.engine.Task` with
its own seed material, so results are byte-identical whatever the worker
count or completion order; cached artifacts are keyed by task spec + seed +
library version, so repeated runs are near-free.  The same studies run from
the shell as ``repro-campaign run`` (see :mod:`repro.engine.cli`), e.g.::

    repro-campaign run block-study --workers 4 --cache-dir .repro-cache
"""

import importlib

from . import adc, circuit, core, defects, engine
from .adc import SarAdc
from .circuit import ReproError
from .core import (SymBistController, SymBistResult, SymBistStimulus,
                   WindowCalibration, calibrate_windows, run_symbist)
from .defects import DefectCampaign, SamplingPlan, build_defect_universe
from .engine import (CampaignEngine, CampaignReport, ResultCache,
                     SerialBackend, SharedMemoryBackend, Task, TaskGraph)

__version__ = "1.1.0"

__all__ = [
    "CampaignEngine", "CampaignReport", "DefectCampaign", "ReproError",
    "ResultCache", "SamplingPlan", "SarAdc", "SerialBackend",
    "SharedMemoryBackend", "SymBistController", "SymBistResult",
    "SymBistStimulus", "Task", "TaskGraph", "WindowCalibration",
    "__version__", "adc", "analysis", "build_defect_universe",
    "calibrate_windows", "circuit", "core", "defects", "digital", "engine",
    "functional_test", "run_symbist",
]

# Loaded on first attribute access (PEP 562): a study imports what it needs
# of these inside the stages that use them.
_LAZY_SUBPACKAGES = frozenset({"analysis", "digital", "functional_test"})


def __getattr__(name):
    if name in _LAZY_SUBPACKAGES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _LAZY_SUBPACKAGES)
