"""Per-layer spans recorded from the benchmark's own files.

:class:`LayerTracer` wraps public functions and methods of the model and
engine layers in place (and restores them afterwards), so a serial study
run reports, per layer, its call count, inclusive time, self time (minus
the time of nested traced layers) and call-duration percentiles.  The
program itself is unchanged; the study JSON of a traced run is identical
to an untraced one.

Two entry points are module-private functions because no public one marks
the layer boundary: ``core.calibration._residual_worker`` (one Monte Carlo
instance) and ``engine.pipeline._build_dut`` (the ``SarAdc`` and defect
universe build).  Both are looked up at call time by their callers, so
replacing the module attribute is enough.
"""

import functools
import importlib
import statistics
import time

#: (module, class or None, attribute, layer name) of every wrapped call.
LAYER_POINTS = [
    ("repro.engine.pipeline", None, "_build_dut", "dut.build"),
    ("repro.core.calibration", None, "_residual_worker", "core.calibration"),
    ("repro.core.controller", "SymBistController", "run", "core.controller"),
    ("repro.defects.simulator", "DefectCampaign", "simulate_defect",
     "defects.simulator"),
    ("repro.defects.simulator", "DefectCampaign", "simulate_defect_batch",
     "defects.simulator.batch"),
    ("repro.defects.batching", None, "build_golden_trace",
     "defects.batching.golden"),
    ("repro.defects.batching", "BatchedDefectEvaluator", "evaluate",
     "defects.batching.evaluate"),
    ("repro.analysis.escape_analysis", None, "analyze_escapes",
     "analysis.escape_analysis"),
    ("repro.functional_test.baseline_bist", "FunctionalBistBaseline", "run",
     "functional_test.baseline"),
    ("repro.adc.sar_adc", "SarAdc", "convert_many",
     "adc.sar_adc.convert_many"),
    ("repro.analysis.yield_loss", None, "empirical_yield_loss",
     "analysis.yield_loss"),
    ("repro.engine.cache", "ResultCache", "get", "engine.cache.get"),
    ("repro.engine.cache", "ResultCache", "put", "engine.cache.put"),
]

#: Layers that run inside engine tasks (their self times add up to part
#: of the engine's task execute time); the rest run in the parent.
TASK_LAYERS = {"core.calibration", "core.controller", "defects.simulator",
               "defects.simulator.batch", "defects.batching.golden",
               "defects.batching.evaluate", "analysis.escape_analysis",
               "functional_test.baseline", "adc.sar_adc.convert_many",
               "analysis.yield_loss"}


class _Layer:
    def __init__(self):
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.durations = []
        self.items = 0


class LayerTracer:
    """Wraps :data:`LAYER_POINTS`; one instance per traced process."""

    def __init__(self):
        self.layers = {name: _Layer() for *_, name in LAYER_POINTS}
        self.cache_hits = 0
        self.fallbacks = 0
        self._stack = []
        self._originals = []

    def install(self):
        for module_name, class_name, attr, name in LAYER_POINTS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []

    def _wrap(self, original, name):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [name, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                if parent is not None:
                    parent[1] += elapsed
            tracer._record(name, elapsed, elapsed - frame[1], parent, args,
                           result)
            return result
        return traced

    def _record(self, name, elapsed, self_time, parent, args, result):
        layer = self.layers[name]
        layer.self_time += self_time
        if name == "defects.simulator" and parent is not None \
                and parent[0] == "defects.simulator.batch":
            # A full-simulation fallback inside a batch: work the batch
            # already counts, and the wasted-work numerator.
            self.fallbacks += 1
            return
        layer.calls += 1
        layer.inclusive += elapsed
        layer.durations.append(elapsed)
        if name == "defects.simulator.batch":
            layer.items += len(args[1])
        elif name == "adc.sar_adc.convert_many":
            layer.items += len(result)
        elif name == "analysis.escape_analysis":
            layer.items += result.n_analyzed
        elif name == "engine.cache.get" and not _is_miss(result):
            self.cache_hits += 1

    def summary(self):
        """Raw per-layer numbers, JSON-ready."""
        return {
            "layers": {name: {"calls": layer.calls, "s": layer.inclusive,
                              "self_s": layer.self_time,
                              "p50_ms": _percentile(layer.durations, 50),
                              "p98_ms": _percentile(layer.durations, 98),
                              "items": layer.items}
                       for name, layer in self.layers.items()},
            "cache_hits": self.cache_hits,
            "fallbacks": self.fallbacks,
            "task_self_s": sum(self.layers[name].self_time
                               for name in TASK_LAYERS)}


def _is_miss(result):
    from repro.engine import MISS
    return result is MISS


def _percentile(durations, pct):
    """Nearest-rank-interpolated percentile of call durations, in ms."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    cuts = statistics.quantiles(durations, n=100, method="inclusive")
    return cuts[pct - 1] * 1e3
