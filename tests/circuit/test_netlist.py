"""Tests for repro.circuit.netlist (netlists and the block hierarchy)."""

import pytest

from repro.circuit import Netlist, NetlistError, NetlistHierarchy, resistor


def make_small_netlist(name="blk"):
    nl = Netlist(name)
    nl.add_resistor("r1", "a", "b", 100.0)
    nl.add_capacitor("c1", "b", "gnd", 1e-12)
    nl.add_nmos("m1", d="b", g="a", s="gnd")
    nl.add_switch("s1", "a", "c", "en")
    return nl


class TestNetlist:
    def test_empty_name_rejected(self):
        with pytest.raises(NetlistError):
            Netlist("")

    def test_add_and_retrieve(self):
        nl = make_small_netlist()
        assert len(nl) == 4
        assert nl.device("r1").value == pytest.approx(100.0)
        assert "m1" in nl
        assert "missing" not in nl

    def test_duplicate_name_rejected(self):
        nl = make_small_netlist()
        with pytest.raises(NetlistError):
            nl.add(resistor("r1", "x", "y", 1.0))

    def test_missing_device_raises(self):
        nl = make_small_netlist()
        with pytest.raises(NetlistError):
            nl.device("nope")

    def test_devices_preserve_insertion_order(self):
        nl = make_small_netlist()
        assert [d.name for d in nl.devices] == ["r1", "c1", "m1", "s1"]

    def test_nets_are_sorted_and_unique(self):
        nl = make_small_netlist()
        nets = nl.nets
        assert nets == sorted(nets)
        assert len(nets) == len(set(nets))
        assert "gnd" in nets

    def test_summary_counts(self):
        nl = make_small_netlist()
        summary = nl.summary()
        assert summary["resistor"] == 1
        assert summary["nmos"] == 1

    def test_clear_defects(self):
        nl = make_small_netlist()
        nl.device("r1").defect.value_scale = 1.5
        nl.device("m1").defect.open_terminal = "d"
        assert nl.has_defect
        assert len(nl.defective_devices()) == 2
        nl.clear_defects()
        assert not nl.has_defect


class TestHierarchy:
    def test_register_and_lookup(self):
        h = NetlistHierarchy("ip")
        blk = make_small_netlist("blk_a")
        h.register("blk_a", blk)
        assert h.netlist("blk_a") is blk
        assert h.entry("blk_a").group == "ams"
        assert len(h) == 1

    def test_duplicate_path_rejected(self):
        h = NetlistHierarchy("ip")
        h.register("blk", make_small_netlist())
        with pytest.raises(NetlistError):
            h.register("blk", make_small_netlist())

    def test_unknown_group_rejected(self):
        h = NetlistHierarchy("ip")
        with pytest.raises(NetlistError):
            h.register("blk", make_small_netlist(), group="mixed")

    def test_unknown_path_raises(self):
        h = NetlistHierarchy("ip")
        with pytest.raises(NetlistError):
            h.netlist("nothing")

    def test_iter_devices_yields_paths(self):
        h = NetlistHierarchy("ip")
        h.register("a", make_small_netlist("a"))
        h.register("b", make_small_netlist("b"), group="digital")
        all_devices = list(h.iter_devices())
        assert len(all_devices) == 8
        ams_only = list(h.iter_devices(group="ams"))
        assert len(ams_only) == 4
        assert all(path == "a" for path, _ in ams_only)

    def test_device_count(self):
        h = NetlistHierarchy("ip")
        h.register("a", make_small_netlist("a"))
        assert h.device_count() == 4

    def test_find_device(self):
        h = NetlistHierarchy("ip")
        h.register("a", make_small_netlist("a"))
        assert h.find_device("a", "r1").name == "r1"

    def test_clear_defects_across_blocks(self):
        h = NetlistHierarchy("ip")
        blk_a, blk_b = make_small_netlist("a"), make_small_netlist("b")
        h.register("a", blk_a)
        h.register("b", blk_b)
        blk_a.device("r1").defect.value_scale = 0.5
        blk_b.device("m1").defect.open_terminal = "g"
        h.clear_defects()
        assert not blk_a.has_defect and not blk_b.has_defect

    def test_summary_per_block(self):
        h = NetlistHierarchy("ip")
        h.register("a", make_small_netlist("a"))
        assert h.summary()["a"]["switch"] == 1
