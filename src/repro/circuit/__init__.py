"""Behavioral circuit-simulation substrate.

This subpackage contains everything the SAR ADC model and the SymBIST/defect
machinery need that is *not* specific to the paper's IP: primitive devices and
structural netlists (the surface on which defects are enumerated and
injected), a linear nodal-analysis solver for resistive networks, waveform
traces, a cycle-based transient engine with a glitch model, and process-
variation utilities for Monte Carlo analysis.
"""

from .._lazy import lazy_exports
from .components import (DefectState, Device, DeviceKind, PullDirection,
                         TERMINALS, capacitor, diode, nmos, npn, pmos, pnp,
                         resistor, switch)
from .errors import (BistConfigurationError, CalibrationError, ComponentError,
                     CoverageError, DefectError, DigitalTestError,
                     DutSpecError, EngineError, FunctionalTestError,
                     NetlistError, ReproError, SimulationError, SolverError,
                     TaskExecutionError)
from .netlist import HierarchyEntry, Netlist, NetlistHierarchy
from .solver import LinearNetwork, solve_resistor_string
from .units import (ADC_BITS, F_CLK, N_REF_LEVELS, OPEN_RESISTANCE,
                    PASSIVE_DEVIATION, SHORT_RESISTANCE, VCM2_NOMINAL,
                    VCM_NOMINAL, VDD, VSS, WEAK_PULL_RESISTANCE, db, from_db,
                    lsb_size, parallel)
from .variation import (GaussianParameter, VariationSpec, reset_variation,
                        vary_netlist)

__all__ = [
    "ADC_BITS", "F_CLK", "N_REF_LEVELS", "OPEN_RESISTANCE",
    "PASSIVE_DEVIATION", "SHORT_RESISTANCE", "VCM2_NOMINAL", "VCM_NOMINAL",
    "VDD", "VSS", "WEAK_PULL_RESISTANCE",
    "BistConfigurationError", "CalibrationError", "ClockedStimulus",
    "ComponentError", "CoverageError", "DefectError", "DefectState", "Device",
    "DeviceKind", "DigitalTestError", "DutSpecError", "EngineError",
    "FunctionalTestError",
    "GaussianParameter", "GlitchModel", "HierarchyEntry", "LinearNetwork",
    "Netlist", "NetlistError", "NetlistHierarchy", "PullDirection",
    "ReproError", "SequenceStimulus", "SimulationError", "SimulationResult",
    "SolverError", "TERMINALS", "TaskExecutionError", "Trace",
    "TransientSimulator",
    "VariationSpec", "WaveformSet",
    "capacitor", "db", "diode", "from_db", "lsb_size", "nmos", "npn",
    "parallel", "pmos", "pnp", "reset_variation", "resistor",
    "solve_resistor_string", "switch", "vary_netlist",
]

# Waveform traces and the cycle-based transient engine serve the per-cycle
# controller and Fig. 5, never a study: loaded on first use.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".signals": ("Trace", "WaveformSet"),
    ".simulator": ("ClockedStimulus", "GlitchModel", "SequenceStimulus",
                   "SimulationResult", "TransientSimulator")})
