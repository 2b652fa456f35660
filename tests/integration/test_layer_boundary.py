"""The model layers are plain computations: only the study layer runs them
through the campaign engine.

Scheduling, caching and tracing live in :mod:`repro.engine` and are reached
through :func:`repro.engine.run_study`; a model module that builds its own
engine, backend, cache or telemetry bus would be a second entry point.
This scans the model packages' source for any reference to those names.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

MODEL_PACKAGES = ("core", "defects", "analysis", "adc", "circuit", "digital",
                  "functional_test", "dut")

#: Engine names a model module must not import (or reach as attributes).
FORBIDDEN = {"CampaignEngine", "ExecutionBackend", "ResultCache",
             "TelemetryBus", "CampaignReport"}

PACKAGE_ROOT = Path(repro.__file__).parent


def _model_modules():
    for package in MODEL_PACKAGES:
        yield from sorted((PACKAGE_ROOT / package).rglob("*.py"))


def engine_references(path):
    """``(line, name)`` of every forbidden name a module imports or uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in FORBIDDEN]
        elif isinstance(node, ast.Attribute) and node.attr in FORBIDDEN:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN:
            found.append((node.lineno, node.id))
    return found


def test_every_model_package_is_scanned():
    scanned = {path.relative_to(PACKAGE_ROOT).parts[0]
               for path in _model_modules()}
    assert scanned == set(MODEL_PACKAGES)


def test_model_layers_do_not_drive_the_engine():
    offenders = {}
    for path in _model_modules():
        references = engine_references(path)
        if references:
            offenders[str(path.relative_to(PACKAGE_ROOT))] = references
    assert offenders == {}


def test_scanner_flags_engine_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from ..engine import CampaignEngine, Task\n"
                     "from ..engine.telemetry import TelemetryBus\n"
                     "import repro.engine as engine\n"
                     "cache = engine.ResultCache('x')\n")
    assert engine_references(probe) == [
        (1, "CampaignEngine"), (2, "TelemetryBus"), (4, "ResultCache")]


def imported_modules(path):
    """``(line, module)`` of everything a ``repro.core`` module imports,
    relative imports resolved (``from .. import x`` yields ``repro.x``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = {0: "", 1: "repro.core", 2: "repro"}[node.level]
            module = ".".join(filter(None, [base, node.module]))
            yield node.lineno, module
            yield from ((node.lineno, f"{module}.{alias.name}")
                        for alias in node.names)


def test_core_does_not_import_the_defect_layer():
    """The residual kernel calibration and defect evaluation share lives in
    ``repro.core``; the defect layer builds on it, never the reverse."""
    offenders = {
        str(path.relative_to(PACKAGE_ROOT)): line
        for path in sorted((PACKAGE_ROOT / "core").rglob("*.py"))
        for line, module in imported_modules(path)
        if module == "repro.defects" or module.startswith("repro.defects.")}
    assert offenders == {}


#: Subpackages the CLI imports only inside the stages and subcommands that
#: use them, never at start-up.
ON_DEMAND = ("repro.digital", "repro.analysis", "repro.functional_test",
             "repro.service", "repro.warehouse")


def _modules_loaded_by(statement):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT.parent), env.get("PYTHONPATH")]))
    script = f"import sys\n{statement}\nprint('\\n'.join(sys.modules))"
    completed = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, check=True)
    return completed.stdout.split()


def test_cli_import_loads_no_on_demand_subpackage():
    loaded = _modules_loaded_by("import repro.engine.cli")
    assert "repro.engine.cli" in loaded
    assert [name for name in loaded
            if name.startswith(ON_DEMAND)] == []


def test_lazy_subpackages_load_on_first_access():
    loaded = _modules_loaded_by(
        "import repro\nrepro.digital\nfrom repro import functional_test\n"
        "assert set(repro.__all__) <= set(dir(repro))")
    assert {"repro.digital", "repro.functional_test"} <= set(loaded)
    assert "repro.analysis" not in loaded
