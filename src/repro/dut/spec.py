"""Declarative device-under-test specification.

The paper evaluates SymBIST on exactly one 65 nm 10-bit SAR ADC; this module
makes that device data instead of code.  A :class:`DutSpec` is a frozen,
fully-typed description of one ADC variant -- resolution, supply rails,
common-mode voltages, bias, unit components, per-block behavioral parameter
overrides and process-variation sigmas -- with a canonical TOML/JSON
round-trip and a stable content :meth:`~DutSpec.fingerprint` that feeds
cache keys and warehouse rows.

``DutSpec()`` (all defaults) describes the paper's ADC exactly: every
default below equals the module constant it replaces, so threading the spec
through the model layer is bit-identical to the historical constant reads.
Studies sweep variants by overriding fields (``[dut]`` / ``[[variants]]``
sections of a study spec, or ``--set dut.resolution_bits=8`` from the CLI).

Derived geometry is exposed as properties: an ``n``-bit converter splits its
code between two ``n/2``-bit sub-DACs (hence ``resolution_bits`` must be
even), giving ``2**(n/2) + 1`` reference-ladder taps, a
``2**(n/2)``-code BIST counter and a mid-scale code of
``2**(n/2 - 1) * (2**(n/2) + 1)`` (528 for the paper's 10-bit device).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Any, Dict, Mapping, Optional

from ..circuit.errors import DutSpecError
from ..circuit.variation import VariationSpec
from .params import PARAM_METADATA_KEY, ParamInfo, Range, coerce_value, p_field

#: VariationSpec field names accepted under ``[dut.variation]``.
_VARIATION_FIELDS = tuple(
    f.name for f in dataclasses.fields(VariationSpec))


@dataclasses.dataclass(frozen=True)
class DutSpec:
    """Typed, serializable description of one SAR ADC variant.

    Every electrical field is declared through
    :func:`~repro.dut.params.p_field` with its unit, validity range and
    tolerance guess; construction validates all of them and raises
    :class:`~repro.circuit.errors.DutSpecError` with an actionable message
    on the first violation.
    """

    resolution_bits: int = p_field(
        10, units="bit", soft_set=Range(4, 16), integer=True,
        doc="ADC output bits; even, the code splits over two equal sub-DACs")
    vdd: float = p_field(
        1.2, units="V", soft_set=Range(0.6, 3.3), tolerance_guess=0.005,
        doc="supply rail of the A/M-S part")
    vss: float = p_field(
        0.0, units="V", soft_set=Range(-0.3, 0.3),
        doc="ground reference")
    vcm: Optional[float] = p_field(
        None, units="V", soft_set=Range(0.2, 3.0), nullable=True,
        tolerance_guess=0.01,
        doc="DAC common-mode voltage; defaults to mid-rail")
    vcm2: float = p_field(
        0.55, units="V", soft_set=Range(0.2, 3.0), tolerance_guess=0.02,
        doc="pre-amplifier output common mode (Vcm2 in the paper)")
    vbg: float = p_field(
        1.2, units="V", soft_set=Range(0.5, 1.5), tolerance_guess=0.002,
        doc="nominal bandgap reference voltage")
    ibias: float = p_field(
        20e-6, units="A", soft_set=Range(1e-6, 1e-3), tolerance_guess=0.05,
        doc="nominal master bias current")
    f_clk: float = p_field(
        156e6, units="Hz", soft_set=Range(1e6, 1e9),
        doc="BIST / conversion clock frequency")
    c_unit: float = p_field(
        50e-15, units="F", soft_set=Range(1e-15, 1e-12),
        tolerance_guess=0.01,
        doc="unit capacitance of the switched-capacitor array")
    r_ladder: float = p_field(
        500.0, units="ohm", soft_set=Range(10.0, 1e5),
        tolerance_guess=0.015,
        doc="unit resistance of one reference-ladder segment")
    test_input_diff: float = p_field(
        0.275, units="V", soft_set=Range(-3.0, 3.0),
        doc="constant differential input of the SymBIST stimulus")
    #: Per-block behavioral parameter overrides, keyed by block path then
    #: parameter name (the names each block registers via
    #: ``declare_parameter``); overrides move the parameter's *nominal*.
    block_params: Mapping[str, Mapping[str, float]] = \
        dataclasses.field(default_factory=dict)
    #: Process-corner overrides of :class:`VariationSpec` fields; ``None``
    #: keeps the study's (or the default) variation spec.
    variation: Optional[Mapping[str, float]] = None

    # ------------------------------------------------------------ validation
    def __post_init__(self) -> None:
        for spec_field in dataclasses.fields(self):
            info = spec_field.metadata.get(PARAM_METADATA_KEY)
            if isinstance(info, ParamInfo):
                value = coerce_value(spec_field.name,
                                     getattr(self, spec_field.name), info)
                object.__setattr__(self, spec_field.name, value)
        if self.resolution_bits % 2 != 0:
            raise DutSpecError(
                f"dut.resolution_bits must be even (the conversion splits "
                f"the code between two equal sub-DACs), got "
                f"{self.resolution_bits}; use e.g. 8, 10 or 12")
        if not self.vdd > self.vss:
            raise DutSpecError(
                f"dut.vdd ({self.vdd:g} V) must exceed dut.vss "
                f"({self.vss:g} V)")
        for name in ("vcm", "vcm2"):
            value = getattr(self, name)
            if value is not None and not (self.vss < value < self.vdd):
                raise DutSpecError(
                    f"dut.{name} = {value:g} V must lie strictly between "
                    f"the rails ({self.vss:g} V, {self.vdd:g} V)")
        object.__setattr__(self, "block_params",
                           self._checked_block_params(self.block_params))
        object.__setattr__(self, "variation",
                           self._checked_variation(self.variation))

    @staticmethod
    def _checked_block_params(value: Any) -> Dict[str, Dict[str, float]]:
        if not isinstance(value, Mapping):
            raise DutSpecError(
                f"dut.block_params must be a table of "
                f"{{block: {{parameter: value}}}}, got {value!r}")
        checked: Dict[str, Dict[str, float]] = {}
        for block, params in value.items():
            if not isinstance(block, str) or not isinstance(params, Mapping):
                raise DutSpecError(
                    f"dut.block_params entries must map a block path to a "
                    f"parameter table, got {block!r} = {params!r}")
            checked[block] = {}
            for name, raw in params.items():
                if isinstance(raw, bool) or \
                        not isinstance(raw, (int, float)) or \
                        not math.isfinite(float(raw)):
                    raise DutSpecError(
                        f"dut.block_params.{block}.{name} must be a finite "
                        f"number, got {raw!r}")
                checked[block][str(name)] = float(raw)
        return checked

    @staticmethod
    def _checked_variation(value: Any) -> Optional[Dict[str, float]]:
        if value is None:
            return None
        if not isinstance(value, Mapping):
            raise DutSpecError(
                f"dut.variation must be a table of VariationSpec fields, "
                f"got {value!r}")
        checked: Dict[str, float] = {}
        for name, raw in value.items():
            if name not in _VARIATION_FIELDS:
                raise DutSpecError(
                    f"dut.variation has no field {name!r}; choose from: "
                    + ", ".join(_VARIATION_FIELDS))
            if isinstance(raw, bool) or not isinstance(raw, (int, float)) \
                    or not math.isfinite(float(raw)):
                raise DutSpecError(
                    f"dut.variation.{name} must be a finite number, "
                    f"got {raw!r}")
            checked[str(name)] = float(raw)
        # Construct once so VariationSpec's own validation (non-negative
        # sigmas) fires at spec construction, not mid-study.
        VariationSpec(**checked)
        return checked

    # ------------------------------------------------------------- geometry
    @property
    def half_bits(self) -> int:
        """Bits per sub-DAC (``resolution_bits / 2``)."""
        return self.resolution_bits // 2

    @property
    def n_codes(self) -> int:
        """Number of output codes (``2 ** resolution_bits``)."""
        return 2 ** self.resolution_bits

    @property
    def full_code(self) -> int:
        """Highest output code (``2 ** resolution_bits - 1``)."""
        return self.n_codes - 1

    @property
    def counter_codes(self) -> int:
        """Codes per sub-DAC / span of the BIST counter (``2**half_bits``)."""
        return 2 ** self.half_bits

    @property
    def n_ref_levels(self) -> int:
        """Reference-ladder taps ``VREF<0:2**half_bits>``."""
        return self.counter_codes + 1

    @property
    def mid_tap(self) -> int:
        """Index of the mid-scale ladder tap (VREF<16> on the paper's DUT)."""
        return self.n_ref_levels // 2

    @property
    def mid_code(self) -> int:
        """Output code at zero differential input (528 on the paper's DUT)."""
        return (self.counter_codes // 2) * self.n_ref_levels

    @property
    def cycles_per_conversion(self) -> int:
        """Clock cycles per conversion: sample + ``bits`` + capture."""
        return self.resolution_bits + 2

    @property
    def common_mode(self) -> float:
        """Effective DAC common mode: ``vcm``, or mid-rail when unset."""
        if self.vcm is not None:
            return self.vcm
        return (self.vdd + self.vss) / 2.0

    @property
    def is_default(self) -> bool:
        """True when this spec describes the paper's (default) ADC."""
        return self == _default()

    def variation_spec(self) -> Optional[VariationSpec]:
        """The corner's :class:`VariationSpec`, or ``None`` when unset."""
        if self.variation is None:
            return None
        return VariationSpec(**dict(self.variation))

    # -------------------------------------------------------- serialization
    def to_jsonable(self) -> Dict[str, Any]:
        """Minimal JSON-ready mapping: fields at their default are dropped,
        so the default spec serializes to ``{}`` and the fingerprint is
        insensitive to spelled-out defaults."""
        default = _default()
        payload: Dict[str, Any] = {}
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            if value == getattr(default, spec_field.name):
                continue
            if isinstance(value, Mapping):
                value = {key: dict(inner) if isinstance(inner, Mapping)
                         else inner for key, inner in value.items()}
            payload[spec_field.name] = value
        return payload

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, Any]) -> "DutSpec":
        if not isinstance(payload, Mapping):
            raise DutSpecError(
                f"a DUT spec must be a table/object, got {payload!r}")
        known = {spec_field.name for spec_field in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise DutSpecError(
                f"unknown [dut] key(s) {', '.join(map(repr, unknown))}; "
                f"known keys: " + ", ".join(sorted(known)))
        return cls(**dict(payload))

    def merged(self, overrides: Mapping[str, Any]) -> "DutSpec":
        """A new spec with ``overrides`` applied over this one (the variant
        overlay operation: the study-level ``[dut]`` merged with one
        ``[variants.dut]`` table)."""
        payload = self.to_jsonable()
        payload.update(overrides)
        return type(self).from_jsonable(payload)

    def fingerprint(self) -> str:
        """Stable 16-hex-digit content hash of the canonical serialization;
        feeds cache keys and the warehouse's ``dut_fingerprint`` column."""
        canonical = json.dumps(self.to_jsonable(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    # ----------------------------------------------------------------- TOML
    def to_toml(self) -> str:
        """Canonical TOML rendering (a standalone ``[dut]`` document)."""
        payload = self.to_jsonable()
        lines = ["[dut]"]
        tables = []
        for key, value in payload.items():
            if isinstance(value, Mapping):
                tables.append((key, value))
            else:
                lines.append(f"{key} = {_toml_scalar(value)}")
        for key, value in tables:
            if key == "variation":
                lines.append("")
                lines.append("[dut.variation]")
                for name, inner in value.items():
                    lines.append(f"{name} = {_toml_scalar(inner)}")
            else:  # block_params: one sub-table per block
                for block, params in value.items():
                    lines.append("")
                    lines.append(f"[dut.{key}.{block}]")
                    for name, inner in params.items():
                        lines.append(f"{name} = {_toml_scalar(inner)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_toml(cls, text: str) -> "DutSpec":
        """Parse a TOML document holding a ``[dut]`` table (or the bare
        fields at top level)."""
        data = _parse_toml(text)
        payload = data.get("dut", data)
        return cls.from_jsonable(payload)


def _toml_scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise DutSpecError(f"cannot render {value!r} as a TOML value")


def _parse_toml(text: str) -> Dict[str, Any]:
    try:
        import tomllib
    except ImportError:  # pragma: no cover (python < 3.11)
        try:
            import tomli as tomllib  # type: ignore[no-redef]
        except ImportError as exc:
            raise DutSpecError(
                "parsing TOML DUT specs needs tomllib (python >= 3.11) "
                "or tomli") from exc
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise DutSpecError(f"invalid TOML DUT spec: {exc}") from exc


_DEFAULT_DUT: Optional[DutSpec] = None


def _default() -> DutSpec:
    """The cached all-defaults spec (the paper's ADC)."""
    global _DEFAULT_DUT
    if _DEFAULT_DUT is None:
        _DEFAULT_DUT = DutSpec()
    return _DEFAULT_DUT


def default_dut() -> DutSpec:
    """The paper's 65 nm 10-bit SAR ADC as a :class:`DutSpec`."""
    return _default()
