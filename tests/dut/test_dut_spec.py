"""Property-based tests of the declarative DUT specification.

The DutSpec is the contract between the study layer and the model layer:
its canonical serialization feeds cache keys (via ``fingerprint()``) and
warehouse rows, so the round-trip must be exact -- a spec that drifts
through TOML or JSON would silently fork the cache.  These tests generate
random valid variants and assert the TOML and JSON round-trips are
identity maps, and that invalid specs are rejected at construction with
messages that name the field, the unit and the accepted range.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import DutSpecError
from repro.dut import DutSpec, default_dut

#: The content hash of the paper's (all-defaults) device; pinned because it
#: feeds cache keys -- changing it invalidates every existing cache.
DEFAULT_FINGERPRINT = "44136fa355b3678a"


@st.composite
def dut_payloads(draw):
    """A random valid ``[dut]`` payload (sparse: each field optional)."""
    payload = {}
    if draw(st.booleans()):
        payload["resolution_bits"] = draw(
            st.sampled_from([4, 6, 8, 10, 12, 14, 16]))
    vdd = 1.2
    if draw(st.booleans()):
        vdd = draw(st.floats(min_value=0.7, max_value=3.3,
                             allow_nan=False, allow_infinity=False))
        payload["vdd"] = vdd
    if draw(st.booleans()):
        payload["vcm"] = draw(
            st.floats(min_value=0.21, max_value=min(vdd - 0.05, 3.0),
                      allow_nan=False, allow_infinity=False))
    if draw(st.booleans()):
        payload["vcm2"] = draw(
            st.floats(min_value=0.21, max_value=min(vdd - 0.05, 3.0),
                      allow_nan=False, allow_infinity=False))
    if draw(st.booleans()):
        payload["ibias"] = draw(
            st.floats(min_value=1e-6, max_value=1e-3,
                      allow_nan=False, allow_infinity=False))
    if draw(st.booleans()):
        payload["c_unit"] = draw(
            st.floats(min_value=1e-15, max_value=1e-12,
                      allow_nan=False, allow_infinity=False))
    if draw(st.booleans()):
        payload["r_ladder"] = draw(
            st.floats(min_value=10.0, max_value=1e5,
                      allow_nan=False, allow_infinity=False))
    if draw(st.booleans()):
        payload["test_input_diff"] = draw(
            st.floats(min_value=-3.0, max_value=3.0,
                      allow_nan=False, allow_infinity=False))
    if draw(st.booleans()):
        payload["block_params"] = {
            "sc_array": {"gain": draw(
                st.floats(min_value=0.5, max_value=1.5,
                          allow_nan=False, allow_infinity=False))}}
    if draw(st.booleans()):
        payload["variation"] = {
            "mos_strength_sigma": draw(
                st.floats(min_value=0.0, max_value=0.2,
                          allow_nan=False, allow_infinity=False))}
    return payload


class TestRoundTrip:
    @given(payload=dut_payloads())
    @settings(max_examples=100, deadline=None)
    def test_toml_and_json_round_trips_are_identity(self, payload):
        spec = DutSpec.from_jsonable(payload)
        via_json = DutSpec.from_jsonable(spec.to_jsonable())
        via_toml = DutSpec.from_toml(spec.to_toml())
        assert via_json == spec
        assert via_toml == spec
        assert via_json.fingerprint() == spec.fingerprint()
        assert via_toml.fingerprint() == spec.fingerprint()

    @given(payload=dut_payloads())
    @settings(max_examples=50, deadline=None)
    def test_jsonable_payload_is_json_serializable(self, payload):
        spec = DutSpec.from_jsonable(payload)
        text = json.dumps(spec.to_jsonable(), sort_keys=True)
        assert DutSpec.from_jsonable(json.loads(text)) == spec

    @given(payload=dut_payloads())
    @settings(max_examples=50, deadline=None)
    def test_merged_with_nothing_is_identity(self, payload):
        spec = DutSpec.from_jsonable(payload)
        assert spec.merged({}) == spec

    def test_default_serializes_empty_and_fingerprint_is_pinned(self):
        assert DutSpec().to_jsonable() == {}
        assert DutSpec().fingerprint() == DEFAULT_FINGERPRINT
        assert default_dut().is_default

    def test_spelled_out_defaults_do_not_move_the_fingerprint(self):
        spec = DutSpec(vdd=1.2, resolution_bits=10, vcm2=0.55)
        assert spec.fingerprint() == DEFAULT_FINGERPRINT
        assert spec.is_default

    def test_unit_suffixed_strings_parse_and_round_trip(self):
        spec = DutSpec.from_jsonable({"vdd": "1.32 V", "f_clk": "156e6 Hz"})
        assert spec.vdd == 1.32
        assert spec.f_clk == 156e6
        assert DutSpec.from_toml(spec.to_toml()) == spec


class TestRejection:
    @given(vdd=st.one_of(
        st.floats(max_value=0.59, allow_nan=False, allow_infinity=False),
        st.floats(min_value=3.31, allow_nan=False, allow_infinity=False)))
    @settings(max_examples=40, deadline=None)
    def test_out_of_range_values_name_field_and_range(self, vdd):
        with pytest.raises(DutSpecError, match=r"dut\.vdd.*range"):
            DutSpec(vdd=vdd)

    def test_unit_mismatch_names_the_expected_unit(self):
        with pytest.raises(DutSpecError, match=r"dut\.vdd.*'V'"):
            DutSpec(vdd="1.2 A")

    def test_non_numeric_value_is_rejected(self):
        with pytest.raises(DutSpecError, match=r"dut\.vdd"):
            DutSpec(vdd="twelve volts")

    @given(bits=st.sampled_from([5, 7, 9, 11, 13, 15]))
    @settings(max_examples=6, deadline=None)
    def test_odd_resolution_is_rejected_with_suggestion(self, bits):
        with pytest.raises(DutSpecError, match="even"):
            DutSpec(resolution_bits=bits)

    def test_fractional_resolution_is_rejected(self):
        with pytest.raises(DutSpecError, match="integer"):
            DutSpec(resolution_bits=9.5)

    def test_common_mode_outside_rails_is_rejected(self):
        with pytest.raises(DutSpecError, match="between"):
            DutSpec(vdd=1.2, vcm=1.3)

    def test_out_of_range_ground_is_rejected(self):
        # The vss and vdd ranges cannot overlap, so an in-range spec always
        # has vdd > vss; a runaway ground is caught by its own range first.
        with pytest.raises(DutSpecError, match=r"dut\.vss.*range"):
            DutSpec(vss=0.5)

    def test_unknown_key_lists_known_keys(self):
        with pytest.raises(DutSpecError, match="unknown.*resolution_bits"):
            DutSpec.from_jsonable({"resolutionbits": 8})

    def test_unknown_variation_field_lists_choices(self):
        with pytest.raises(DutSpecError, match="mos_strength_sigma"):
            DutSpec(variation={"sigma_mos": 0.1})

    def test_non_finite_values_are_rejected(self):
        with pytest.raises(DutSpecError, match="finite"):
            DutSpec(ibias=float("nan"))


class TestFingerprint:
    def test_distinct_variants_have_distinct_fingerprints(self):
        fingerprints = {
            DutSpec().fingerprint(),
            DutSpec(resolution_bits=8).fingerprint(),
            DutSpec(vdd=1.08).fingerprint(),
            DutSpec(vdd=1.32).fingerprint(),
        }
        assert len(fingerprints) == 4

    def test_fingerprint_is_order_insensitive(self):
        a = DutSpec.from_jsonable({"vdd": 1.32, "resolution_bits": 8})
        b = DutSpec.from_jsonable({"resolution_bits": 8, "vdd": 1.32})
        assert a.fingerprint() == b.fingerprint()

    def test_merged_overlay_wins_and_keeps_base(self):
        base = DutSpec(vdd=1.32)
        merged = base.merged({"resolution_bits": 8})
        assert merged.vdd == 1.32
        assert merged.resolution_bits == 8
        assert merged.fingerprint() != base.fingerprint()


class TestGeometry:
    @given(bits=st.sampled_from([4, 6, 8, 10, 12, 14, 16]))
    @settings(max_examples=7, deadline=None)
    def test_derived_geometry_is_consistent(self, bits):
        spec = DutSpec(resolution_bits=bits)
        assert spec.half_bits * 2 == bits
        assert spec.n_codes == 2 ** bits
        assert spec.counter_codes * spec.counter_codes == spec.n_codes
        assert spec.n_ref_levels == spec.counter_codes + 1
        assert spec.mid_code == (spec.counter_codes // 2) * spec.n_ref_levels
        assert spec.cycles_per_conversion == bits + 2

    def test_paper_geometry(self):
        spec = default_dut()
        assert (spec.n_codes, spec.n_ref_levels, spec.mid_code) == \
            (1024, 33, 528)

    def test_common_mode_defaults_to_mid_rail(self):
        assert DutSpec().common_mode == pytest.approx(0.6)
        assert DutSpec(vcm=0.5).common_mode == 0.5
        assert DutSpec(vdd=1.0).common_mode == pytest.approx(0.5)

