"""SymBIST core -- the paper's primary contribution.

Invariance definitions (paper Eqs. (2)-(5)), the clocked window comparator,
the digital test stimulus (DC FD input + exhaustive 5-bit counter), the BIST
controller with sequential / parallel checking and stop-on-detection, the
staged golden-trace residual kernel, the Monte Carlo ``delta = k * sigma``
window calibration, and the test-time and area-overhead models.
"""

from .._lazy import lazy_exports
from .calibration import (DEFAULT_DELTA_FLOORS, GENERIC_DELTA_FLOOR,
                          WindowCalibration, calibrate_windows,
                          calibration_from_windows,
                          collect_defect_free_residuals)
from .golden_trace import GoldenTrace, build_golden_trace
from .invariance import (Invariance, SIGN_DEADBAND, SIGN_VIOLATION_MAGNITUDE,
                         build_invariances, evaluate_all, invariance_by_name)
from .stimulus import SymBistStimulus
from .test_time import CheckingMode, TestTimeModel
from .window_comparator import (WindowCheckResult, WindowComparator,
                                build_checkers)

__all__ = [
    "AreaReport", "CheckingMode", "DEFAULT_DELTA_FLOORS",
    "DEFAULT_DIGITAL_GATES", "GENERIC_DELTA_FLOOR", "GoldenTrace",
    "Invariance",
    "SIGN_DEADBAND", "SIGN_VIOLATION_MAGNITUDE", "SymBistController",
    "SymBistResult", "SymBistStimulus", "TestTimeModel", "WindowCalibration",
    "WindowCheckResult", "WindowComparator", "area_overhead",
    "build_checkers", "build_golden_trace", "build_invariances",
    "calibrate_windows",
    "calibration_from_windows", "collect_defect_free_residuals",
    "evaluate_all", "format_confidence",
    "format_percent", "format_table", "invariance_by_name", "ip_analog_area",
    "run_symbist", "summarize_symbist_result", "SymBistTam", "TamInstruction",
    "TamSession", "INSTRUCTION_BITS", "RESPONSE_BITS", "symbist_infrastructure_area",
    "waveform_csv",
]

# The per-cycle controller (with the transient simulator behind it), the
# TAM, and the area and report models run in no study: loaded on first use.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".area": ("AreaReport", "DEFAULT_DIGITAL_GATES", "area_overhead",
              "ip_analog_area", "symbist_infrastructure_area"),
    ".controller": ("SymBistController", "SymBistResult", "run_symbist"),
    ".report": ("format_confidence", "format_percent", "format_table",
                "summarize_symbist_result", "waveform_csv"),
    ".tam": ("INSTRUCTION_BITS", "RESPONSE_BITS", "SymBistTam",
             "TamInstruction", "TamSession")})
