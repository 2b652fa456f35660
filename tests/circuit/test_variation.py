"""Tests for process-variation modelling (repro.circuit.variation)."""

import numpy as np
import pytest

from repro.circuit import (GaussianParameter, Netlist, SimulationError,
                           VariationSpec, reset_variation, vary_netlist)
from repro.circuit.variation import vary_passives


def passive_netlist():
    nl = Netlist("passives")
    for i in range(20):
        nl.add_resistor(f"r{i}", f"a{i}", f"b{i}", 1000.0)
        nl.add_capacitor(f"c{i}", f"x{i}", f"y{i}", 1e-12)
    nl.add_nmos("m0", "d", "g", "s")
    return nl


class TestVariationSpec:
    def test_defaults_are_small_fractions(self):
        spec = VariationSpec()
        assert 0 < spec.resistor_global_sigma < 0.1
        assert 0 < spec.capacitor_global_sigma < 0.1

    def test_negative_sigma_rejected(self):
        with pytest.raises(SimulationError):
            VariationSpec(resistor_global_sigma=-0.1)


class TestGaussianParameter:
    def test_zero_sigma_returns_nominal(self):
        param = GaussianParameter("offset", 0.01, 0.0)
        assert param.sample(np.random.default_rng(0)) == 0.01

    def test_negative_sigma_rejected(self):
        with pytest.raises(SimulationError):
            GaussianParameter("bad", 0.0, -1.0)

    def test_samples_have_requested_statistics(self):
        param = GaussianParameter("x", 1.0, 0.1)
        rng = np.random.default_rng(7)
        values = np.array([param.sample(rng) for _ in range(4000)])
        assert values.mean() == pytest.approx(1.0, abs=0.01)
        assert values.std() == pytest.approx(0.1, abs=0.01)

    def test_same_seed_reproducible(self):
        param = GaussianParameter("x", 0.0, 1.0)
        a = param.sample(np.random.default_rng(11))
        b = param.sample(np.random.default_rng(11))
        assert a == b


class TestVaryNetlist:
    def test_scales_only_passives(self):
        nl = passive_netlist()
        scales = vary_netlist(nl, np.random.default_rng(1))
        assert set(scales) == {d.name for d in nl
                               if d.kind.is_passive}
        assert nl.device("m0").defect.is_clean

    def test_scales_are_near_unity(self):
        nl = passive_netlist()
        scales = vary_netlist(nl, np.random.default_rng(2))
        assert all(0.8 < s < 1.2 for s in scales.values())

    def test_defective_device_untouched(self):
        nl = passive_netlist()
        nl.device("r0").defect.shorted_terminals = ("p", "n")
        scales = vary_netlist(nl, np.random.default_rng(3))
        assert "r0" not in scales

    def test_reset_variation_restores_nominal(self):
        nl = passive_netlist()
        vary_netlist(nl, np.random.default_rng(4))
        reset_variation(nl)
        assert all(d.effective_value() == pytest.approx(d.value)
                   for d in nl if d.kind.is_passive)

    def test_reset_keeps_real_defects(self):
        nl = passive_netlist()
        nl.device("c0").defect.open_terminal = "p"
        vary_netlist(nl, np.random.default_rng(5))
        reset_variation(nl)
        assert nl.device("c0").is_open("p")

    def test_same_seed_same_draw(self):
        nl_a, nl_b = passive_netlist(), passive_netlist()
        scales_a = vary_netlist(nl_a, np.random.default_rng(9))
        scales_b = vary_netlist(nl_b, np.random.default_rng(9))
        assert scales_a == scales_b

    def test_resistors_share_global_component(self):
        """Resistor scales should be strongly correlated (global shift)."""
        spec = VariationSpec(resistor_global_sigma=0.05,
                             resistor_mismatch_sigma=0.0001)
        nl = passive_netlist()
        scales = vary_netlist(nl, np.random.default_rng(6), spec)
        r_scales = [v for k, v in scales.items() if k.startswith("r")]
        assert max(r_scales) - min(r_scales) < 0.01

    def test_netlist_without_passives_still_draws_both_global_shifts(self):
        """A draw consumes the same generator stream whether a netlist
        holds passives or not, so later draws stay where they were."""
        nl = Netlist("actives")
        nl.add_nmos("m0", "d", "g", "s")
        rng = np.random.default_rng(12)
        assert vary_passives([], rng) == {}
        assert vary_netlist(nl, rng) == {}
        reference = np.random.default_rng(12)
        reference.standard_normal(4)
        assert rng.standard_normal() == reference.standard_normal()
