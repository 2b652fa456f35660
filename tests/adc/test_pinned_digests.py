"""The model's bytes, pinned.

The oracles of the conversion and golden-trace fast paths compare two ways
of running the same block models, and both ways now go through each block's
one column kernel (``ScArray.columns``, ``Preamplifier.columns``,
``ComparatorLatch.columns``, ``RsLatch.step_columns``).  An oracle cannot see
a change made inside a kernel, so this test pins sha256 digests of the
model's float64 output bytes:

* the clean default-DUT golden trace: every signal column (by name) and the
  invariance x cycle residual matrix;
* the ``BatchedDefectEvaluator`` residual matrix of every 10th defect;
* the ``SarAdc.convert_many`` codes of every 10th defect on the ramp-and-sine
  stimulus of the lockstep oracle.

A digest may change only with a deliberate model change, and that change
must be recorded in CHANGES.md together with the new digests.  Any other
difference -- an optimisation that moves one bit of one signal -- is a bug.
"""

import hashlib

import numpy as np
import pytest

from repro.adc import SarAdc
from repro.core import SymBistStimulus, build_golden_trace, build_invariances
from repro.core.test_time import CheckingMode
from repro.defects import BatchedDefectEvaluator, LOCAL_STAGE
from repro.defects.injection import DefectInjector
from repro.defects.universe import build_defect_universe

#: Digests of the paper's device, taken on the scalar per-sample block
#: models these kernels replaced (the two agree bit for bit).
PINNED = {
    "golden_columns":
        "1ec1081c79c7b9b8a351f5f8152ec15c4796935fccba06b33a4e610f32afffc8",
    "golden_residuals":
        "c108e7c20cfad51933d2c2b662e9bc39735e275a4edea5732d3e601f8eba3d36",
    "batched_residuals":
        "97c2bce85cc43e69f9a6c085d6f530d118b4f6f443d31b2b17837d98c91a642e",
    "convert_many_codes":
        "640a25ad79c8f937fac97990c19d6659d06b54e3c5dc0c5c293be7f3199b0fb6",
}

STRIDE = 10


def stimulus(adc, n_points):
    """``n_points`` of an over-ranged ramp, then ``n_points`` of a sine (the
    lockstep oracle's stimulus)."""
    low, high = adc.ideal_input_range()
    ramp = np.linspace(1.05 * low, 1.05 * high, n_points + 2)[1:-1]
    sine = 0.9 * high * np.sin(np.linspace(0.3, 2 * np.pi, n_points))
    return list(ramp) + list(sine)


def _update(digest, array):
    digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())


def model_digests():
    """The four digests of :data:`PINNED`, computed on the current model."""
    adc = SarAdc()
    stim = SymBistStimulus()
    invariances = build_invariances()
    trace = build_golden_trace(adc, stim, invariances)
    columns = hashlib.sha256()
    for name in sorted(trace.columns):
        columns.update(name.encode())
        _update(columns, trace.columns[name])
    residuals = hashlib.sha256()
    _update(residuals, np.array([trace.residuals[inv.name]
                                 for inv in invariances]))

    evaluator = BatchedDefectEvaluator(
        adc, stim, {inv.name: 0.01 for inv in invariances},
        CheckingMode.SEQUENTIAL, stop_on_detection=True,
        invariances=invariances)
    hierarchy = adc.build_hierarchy()
    injector = DefectInjector(hierarchy)
    inputs = stimulus(adc, 16)
    batched, codes = hashlib.sha256(), hashlib.sha256()
    for defect in build_defect_universe(hierarchy).defects[::STRIDE]:
        with injector.injected(defect):
            batched.update(defect.defect_id.encode())
            _update(batched, evaluator._settled_residuals(
                LOCAL_STAGE[defect.block_path]))
            codes.update(defect.defect_id.encode())
            codes.update(repr(adc.convert_many(inputs)).encode())
    return {"golden_columns": columns.hexdigest(),
            "golden_residuals": residuals.hexdigest(),
            "batched_residuals": batched.hexdigest(),
            "convert_many_codes": codes.hexdigest()}


@pytest.fixture(scope="module")
def digests():
    return model_digests()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_model_bytes_are_pinned(digests, name):
    assert digests[name] == PINNED[name]


if __name__ == "__main__":  # print the digests of the current model
    for key, value in model_digests().items():
        print(f"{key} {value}")
