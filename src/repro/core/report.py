"""Plain-text reporting helpers shared by the benchmarks and examples.

The paper's results are a table (Table I) and a waveform figure (Fig. 5); the
benchmark harness regenerates them as aligned plain-text tables and CSV
series.  The helpers here keep that formatting in one place.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional,
                    Sequence)

if TYPE_CHECKING:
    from .controller import SymBistResult


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render an aligned plain-text table."""
    str_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(render_row(row) for row in str_rows)
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def format_percent(value: float, decimals: int = 2) -> str:
    """Format a fraction as a percentage string (``0.8696 -> '86.96%'``)."""
    return f"{100.0 * value:.{decimals}f}%"


def format_confidence(value: float, half_width: Optional[float],
                      decimals: int = 2) -> str:
    """Format ``value +/- half_width`` as percentages, like Table I."""
    if half_width is None:
        return format_percent(value, decimals)
    return (f"{format_percent(value, decimals)}"
            f" +/- {100.0 * half_width:.{decimals}f}%")


def summarize_symbist_result(result: SymBistResult) -> str:
    """One-paragraph human-readable summary of a SymBIST run."""
    lines = [
        f"SymBIST {'PASS' if result.passed else 'FAIL'} "
        f"({result.mode.value} checking, "
        f"{result.cycles_run}/{result.cycles_scheduled} cycles, "
        f"{result.test_time * 1e6:.3f} us)",
    ]
    rows = []
    for name, check in result.check_results.items():
        rows.append([name, f"{check.delta:.4g}",
                     f"{check.worst_residual:.4g}",
                     "pass" if check.passed else
                     f"FAIL @ cycle {check.first_violation_cycle}"])
    lines.append(format_table(
        ["invariance", "delta", "worst residual", "status"], rows))
    if result.first_detection is not None:
        name, cycle = result.first_detection
        lines.append(f"first detection: invariance {name!r} at counter cycle "
                     f"{cycle}")
    return "\n".join(lines)


def waveform_csv(result: SymBistResult,
                 invariance: str = "dac_sum") -> str:
    """CSV of one invariance residual waveform (glitches included)."""
    trace = result.waveforms[invariance]
    lines = ["time_s,residual_v"]
    for t, v in trace:
        lines.append(f"{t:.9g},{v:.9g}")
    return "\n".join(lines) + "\n"
