"""Small factorizations run on one BLAS thread (:mod:`repro.backend.blas`).

On systems of a few tens of rows a multi-threaded OpenBLAS spends far
more time waking its pool than computing, so the component projections,
their row reduction and the polish LU drop every loaded OpenBLAS to one
thread and restore the count afterwards, never process-wide.
"""

import numpy as np
import pytest

import repro.core.batch as batch
from repro.backend import blas
from repro.decomposition.rowreduce import reduced_row_echelon


@pytest.fixture
def controls():
    found = blas._openblas_controls()
    if not found:
        pytest.skip("no OpenBLAS loaded in this process")
    return found


def threads(controls):
    return [get() for get, _ in controls]


def test_one_thread_inside_and_the_count_restored_after(controls):
    before = threads(controls)
    with blas.single_blas_thread():
        assert threads(controls) == [1] * len(controls)
        with blas.single_blas_thread():
            assert threads(controls) == [1] * len(controls)
        assert threads(controls) == [1] * len(controls)
    assert threads(controls) == before


def test_restored_when_the_body_raises(controls):
    before = threads(controls)
    with pytest.raises(ZeroDivisionError):
        with blas.single_blas_thread():
            1 / 0
    assert threads(controls) == before


def test_projection_factorizes_on_one_thread(controls, monkeypatch):
    seen = []
    dpotrf = batch._dpotrf

    def recording_dpotrf(*args, **kwargs):
        seen.append(threads(controls))
        return dpotrf(*args, **kwargs)

    monkeypatch.setattr(batch, "_dpotrf", recording_dpotrf)
    before = threads(controls)
    a = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    batch.projection_data(a, np.ones(2))
    assert seen == [[1] * len(controls)]
    assert threads(controls) == before


def test_row_reduction_restores_the_count(controls):
    before = threads(controls)
    reduced_row_echelon(np.eye(3), np.ones(3))
    assert threads(controls) == before
