"""Shared fixtures for the SymBIST reproduction test suite.

The expensive fixtures (window calibration, defect universe) are session
scoped so the several hundred tests stay fast; every random draw is seeded so
the suite is deterministic.
"""

from __future__ import annotations

import argparse

import numpy as np
import pytest

from repro.adc import SarAdc
from repro.core import (SymBistStimulus, WindowCalibration, build_invariances,
                        calibrate_windows)
from repro.defects import DefectCampaign, LikelihoodModel, build_defect_universe


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic random generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def adc() -> SarAdc:
    """A fresh, defect-free, nominal-corner ADC instance."""
    return SarAdc()


@pytest.fixture(scope="session")
def cli_backend():
    """Factory for the backend ``repro-campaign --backend NAME --workers 2``
    runs on: ``serial``, or the process pool under either of its names
    (``shm`` and its alias ``multiprocess``)."""
    from repro.engine.cli import _build_backend
    return lambda name: _build_backend(
        argparse.Namespace(backend=name, workers=2))


@pytest.fixture(scope="session")
def calibration() -> WindowCalibration:
    """Session-wide window calibration (small but deterministic Monte Carlo)."""
    return calibrate_windows(n_monte_carlo=20,
                             rng=np.random.default_rng(2024),
                             keep_pools=True)


@pytest.fixture(scope="session")
def deltas(calibration: WindowCalibration) -> dict:
    """Calibrated window half-widths keyed by invariance name."""
    return dict(calibration.deltas)


@pytest.fixture(scope="session")
def invariances():
    """The six standard invariances."""
    return build_invariances()


@pytest.fixture
def stimulus() -> SymBistStimulus:
    """The standard SymBIST stimulus (DC FD input + 5-bit counter)."""
    return SymBistStimulus()


@pytest.fixture(scope="session")
def session_universe():
    """Defect universe of a reference IP instance (session scoped)."""
    reference_adc = SarAdc()
    return build_defect_universe(reference_adc.build_hierarchy(),
                                 LikelihoodModel())


@pytest.fixture
def campaign(deltas) -> DefectCampaign:
    """A defect campaign bound to a fresh ADC with calibrated windows."""
    return DefectCampaign(adc=SarAdc(), deltas=deltas)
