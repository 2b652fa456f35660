"""Tests for defect-universe extraction, injection, and LWRS sampling."""

from collections import Counter, defaultdict

import numpy as np
import pytest

from repro.adc import SarAdc
from repro.circuit import CoverageError, DefectError
from repro.defects import (DefectInjector, DefectKind, DefectUniverse,
                           LikelihoodModel, SamplingPlan,
                           block_seed_sequence, build_defect_universe,
                           enumerate_device_defects, lwrs_sample,
                           per_block_selection, select_defects)
from repro.dut import default_dut


class TestUniverseExtraction:
    def test_covers_every_analog_block(self, session_universe):
        paths = set(session_universe.block_paths())
        assert paths == {"bandgap", "reference_buffer", "subdac1", "subdac2",
                         "sc_array", "vcm_generator", "preamplifier",
                         "comparator_latch", "rs_latch", "offset_compensation"}

    def test_universe_size_in_paper_ballpark(self, session_universe):
        """Paper Table I: 2956 defects for the complete A/M-S part."""
        assert 2000 <= len(session_universe) <= 4000

    def test_subdacs_dominate_the_defect_count(self, session_universe):
        counts = Counter(d.block_path for d in session_universe)
        assert counts["subdac1"] == counts["subdac2"]
        assert counts["subdac1"] > 0.25 * len(session_universe)

    def test_all_likelihoods_positive(self, session_universe):
        assert all(d.likelihood > 0 for d in session_universe)
        assert session_universe.total_likelihood > 0

    def test_kind_mix(self, session_universe):
        kinds = Counter(d.kind.value for d in session_universe.defects)
        assert kinds["short"] > kinds["passive_high"]
        assert set(kinds) == {"short", "open", "passive_high", "passive_low"}

    def test_by_block_and_by_kind_filters(self, session_universe):
        sc = session_universe.by_block("sc_array")
        assert len(sc) > 0
        assert all(d.block_path == "sc_array" for d in sc)
        assert len(session_universe.by_block("not_a_block")) == 0

    def test_find_by_id(self, session_universe):
        some = session_universe.defects[10]
        assert session_universe.find(some.defect_id) is some
        with pytest.raises(DefectError):
            session_universe.find("does/not:exist")

    def test_block_restriction_at_build_time(self):
        adc = SarAdc()
        universe = build_defect_universe(adc.build_hierarchy(),
                                         blocks=["sc_array"])
        assert set(universe.block_paths()) == {"sc_array"}

    @pytest.mark.parametrize("model", [
        LikelihoodModel(),
        LikelihoodModel(block_scale={"bandgap": 3.0, "sc_array": 0.7})])
    def test_defects_are_built_with_their_final_likelihood(self, model):
        """Equal, down to the likelihood bits, to enumerating every defect
        at likelihood 1.0 and then reweighting a copy of it."""
        hierarchy = SarAdc().build_hierarchy()
        reference = [model.reweight(defect, device)
                     for block_path, device in hierarchy.iter_devices(
                         group="ams")
                     for defect in enumerate_device_defects(block_path,
                                                            device)]
        built = build_defect_universe(hierarchy, model).defects
        assert [d.defect_id for d in built] == \
            [d.defect_id for d in reference]
        assert [d.likelihood.hex() for d in built] == \
            [d.likelihood.hex() for d in reference]
        assert built == reference

    def test_probabilities_sum_to_one(self, session_universe):
        probs = session_universe.probabilities()
        assert probs.sum() == pytest.approx(1.0)
        assert (probs > 0).all()

    def test_empty_universe_probabilities_raise(self):
        with pytest.raises(DefectError):
            DefectUniverse([]).probabilities()


def _walked_defects(hierarchy, model):
    """The universe as a plain per-device walk (the reference)."""
    return [defect
            for block_path, device in hierarchy.iter_devices(group="ams")
            for defect in enumerate_device_defects(
                block_path, device,
                lambda kind: model.kind_likelihood(kind, block_path, device))]


def _walked_selection(defects, seed, n_samples, threshold):
    """Per-block LWRS selection drawn from plain defect lists."""
    selection = {}
    for block in dict.fromkeys(d.block_path for d in defects):
        members = [d for d in defects if d.block_path == block]
        if len(members) <= threshold:
            selection[block] = members
            continue
        weights = np.asarray([d.likelihood for d in members], dtype=float)
        rng = np.random.default_rng(block_seed_sequence(seed, block))
        indices = rng.choice(len(members), size=n_samples, replace=True,
                             p=weights / weights.sum())
        selection[block] = [members[int(i)] for i in indices]
    return selection


class TestBlockColumns:
    @pytest.mark.parametrize("bits", [8, 10, 12])
    @pytest.mark.parametrize("model", [
        LikelihoodModel(),
        LikelihoodModel(block_scale={"bandgap": 3.0, "subdac1": 0.7})],
        ids=["default-model", "scaled-model"])
    def test_columns_equal_a_plain_device_walk(self, bits, model):
        """Defects, size, likelihood bits, probabilities and every block's
        LWRS selection equal those of the plain enumeration."""
        dut = default_dut().merged({"resolution_bits": bits})
        hierarchy = SarAdc(dut=dut).build_hierarchy()
        universe = build_defect_universe(hierarchy, model)
        walked = _walked_defects(hierarchy, model)

        assert len(universe) == len(walked)
        assert universe.defects == walked
        assert universe.total_likelihood.hex() == \
            float(sum(d.likelihood for d in walked)).hex()
        weights = np.asarray([d.likelihood for d in walked], dtype=float)
        assert np.array_equal(universe.probabilities(),
                              weights / weights.sum())
        for block in universe.block_paths():
            members = [d for d in walked if d.block_path == block]
            sub = universe.by_block(block)
            assert len(sub) == len(members)
            assert sub.total_likelihood.hex() == \
                float(sum(d.likelihood for d in members)).hex()

        fresh = build_defect_universe(hierarchy, model)
        selection = per_block_selection(fresh, 7, 64)
        assert {block: defects for block, (_, defects) in selection.items()} \
            == _walked_selection(walked, 7, 64, threshold=64)


class TestInjection:
    def test_inject_and_remove_short(self):
        adc = SarAdc()
        hierarchy = adc.build_hierarchy()
        universe = build_defect_universe(hierarchy)
        injector = DefectInjector(hierarchy)
        defect = next(d for d in universe if d.kind is DefectKind.SHORT
                      and d.block_path == "sc_array")
        device = injector.inject(defect)
        assert device.has_defect
        injector.remove()
        assert not device.has_defect

    def test_single_defect_assumption_enforced(self):
        adc = SarAdc()
        hierarchy = adc.build_hierarchy()
        universe = build_defect_universe(hierarchy)
        injector = DefectInjector(hierarchy)
        injector.inject(universe.defects[0])
        with pytest.raises(DefectError):
            injector.inject(universe.defects[1])
        injector.remove()

    def test_context_manager_always_cleans_up(self):
        adc = SarAdc()
        hierarchy = adc.build_hierarchy()
        universe = build_defect_universe(hierarchy)
        injector = DefectInjector(hierarchy)
        defect = universe.defects[5]
        with pytest.raises(RuntimeError):
            with injector.injected(defect):
                raise RuntimeError("simulation blew up")
        assert not injector.resolve(defect).has_defect

    def test_passive_deviation_injection_scales_value(self):
        adc = SarAdc()
        hierarchy = adc.build_hierarchy()
        universe = build_defect_universe(hierarchy)
        injector = DefectInjector(hierarchy)
        defect = next(d for d in universe if d.kind is DefectKind.PASSIVE_HIGH
                      and d.block_path == "sc_array")
        with injector.injected(defect) as device:
            assert device.defect.value_scale == pytest.approx(1.5)

    def test_open_injection_records_pull(self):
        adc = SarAdc()
        hierarchy = adc.build_hierarchy()
        universe = build_defect_universe(hierarchy)
        injector = DefectInjector(hierarchy)
        defect = next(d for d in universe if d.kind is DefectKind.OPEN)
        with injector.injected(defect) as device:
            assert device.defect.open_terminal == defect.terminals[0]
            assert device.defect.open_pull is defect.pull

    def test_remove_without_injection_is_noop(self):
        adc = SarAdc()
        injector = DefectInjector(adc.build_hierarchy())
        injector.remove()  # must not raise


class TestLwrsSampling:
    def test_sample_size(self, session_universe, rng):
        sample = lwrs_sample(session_universe, 50, rng)
        assert len(sample) == 50

    def test_sampling_is_reproducible(self, session_universe):
        sample_a = lwrs_sample(session_universe, 30, np.random.default_rng(4))
        sample_b = lwrs_sample(session_universe, 30, np.random.default_rng(4))
        assert [d.defect_id for d in sample_a] == [d.defect_id for d in sample_b]

    def test_sampling_favours_high_likelihood_blocks(self, session_universe, rng):
        sample = lwrs_sample(session_universe, 400, rng)
        likelihood = defaultdict(float)
        for defect in session_universe.defects:
            likelihood[defect.block_path] += defect.likelihood
        heaviest = max(likelihood, key=likelihood.get)
        lightest = min(likelihood, key=likelihood.get)
        counts = {}
        for defect in sample:
            counts[defect.block_path] = counts.get(defect.block_path, 0) + 1
        assert counts.get(heaviest, 0) > counts.get(lightest, 0)

    def test_without_replacement_never_repeats(self, session_universe, rng):
        sample = lwrs_sample(session_universe, 200, rng, with_replacement=False)
        ids = [d.defect_id for d in sample]
        assert len(ids) == len(set(ids))

    def test_invalid_requests_rejected(self, session_universe, rng):
        with pytest.raises(CoverageError):
            lwrs_sample(session_universe, 0, rng)
        with pytest.raises(CoverageError):
            lwrs_sample(DefectUniverse([]), 5, rng)

    def test_select_defects_exhaustive(self, session_universe, rng):
        plan = SamplingPlan(exhaustive=True)
        assert len(select_defects(session_universe, plan, rng)) == \
            len(session_universe)

    def test_select_defects_lwrs(self, session_universe, rng):
        plan = SamplingPlan(exhaustive=False, n_samples=25)
        assert len(select_defects(session_universe, plan, rng)) == 25

    def test_invalid_plan_rejected(self):
        with pytest.raises(CoverageError):
            SamplingPlan(exhaustive=False, n_samples=0)
