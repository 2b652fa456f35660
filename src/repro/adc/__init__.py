"""Behavioral model of the 65 nm 10-bit SAR ADC IP (the SymBIST demonstrator).

The package mirrors the block diagram of the paper (Figs. 2-4): the top-level
:class:`SarAdc` composes the bandgap, the reference buffer, the SAR control
and the SARCELL; the SARCELL composes the 10-bit DAC (two 5-bit sub-DACs plus
the switched-capacitor array), the comparator chain (pre-amplifier, comparator
latch, RS latch, offset compensation), the Vcm generator, the phase generator
and the SAR logic.  Every analog block couples a structural netlist (the
defect surface) with a behavioral evaluation.
"""

from .._lazy import lazy_exports
from .bandgap import Bandgap, BandgapOutput
from .behavioral import (MosState, PassiveState, StageEffect, combine_effects,
                         diff_stage_effect, effective_capacitance,
                         effective_resistance, mos_state, passive_state,
                         switch_state)
from .block import AnalogBlock
from .comparator import (Comparator, ComparatorLatch, ComparatorOutput,
                         LatchOutput, OffsetCompensation, Preamplifier,
                         PreampOutput, RsLatch)
from .dac import DacOutput, TenBitDac, split_code
from .phase_generator import CYCLES_PER_CONVERSION, Phase, PhaseGenerator
from .reference_buffer import ReferenceBuffer
from .sar_adc import (DEFAULT_TEST_INPUT_DIFF, DutAdcFactory,
                      OperatingPoint, SarAdc)
from .sar_control import N_PULSES, SarControl
from .sar_logic import SarLogic
from .sarcell import SarCell, SarCellOutputs
from .sc_array import ScArray, ScArrayInputs, ScArrayOutput
from .subdac import SubDac, SubDacOutput, make_subdac1, make_subdac2
from .vcm_generator import VcmGenerator

__all__ = [
    "AnalogBlock", "AdcSpecification", "Bandgap", "BandgapOutput",
    "CYCLES_PER_CONVERSION", "Comparator", "ComparatorLatch",
    "ComparatorOutput", "DEFAULT_TEST_INPUT_DIFF", "DacOutput",
    "DutAdcFactory", "LatchOutput",
    "MeasuredPerformance", "MosState", "N_PULSES", "OffsetCompensation",
    "OperatingPoint", "PassiveState", "Phase", "PhaseGenerator",
    "Preamplifier", "PreampOutput", "ReferenceBuffer", "RsLatch", "SarAdc",
    "SarCell", "SarCellOutputs", "SarControl", "SarLogic", "ScArray",
    "ScArrayInputs", "ScArrayOutput", "StageEffect", "SubDac", "SubDacOutput",
    "TenBitDac", "VcmGenerator", "check_specification", "combine_effects",
    "diff_stage_effect", "effective_capacitance", "effective_resistance",
    "make_subdac1", "make_subdac2", "mos_state", "passive_state",
    "split_code", "switch_state",
]

# The functional specification is read only by the escape analysis and the
# functional baseline: loaded on first use.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".spec": ("AdcSpecification", "MeasuredPerformance",
              "check_specification")})
