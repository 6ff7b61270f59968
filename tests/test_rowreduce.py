"""Unit and property tests for RREF row reduction."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.decomposition.rowreduce import reduced_row_echelon, row_rank
from repro.utils.exceptions import InfeasibleError


def reduce_or_assume(a, b):
    """Row-reduce, assuming away near-degenerate draws.

    A consistent system whose rows sit at the pivot-tolerance boundary
    (coefficients ~tol*scale, residual rhs just above it) is declared
    inconsistent by the tolerance logic; the properties below are about
    systems the reduction accepts (same convention as test_qp).
    """
    try:
        return reduced_row_echelon(a, b)
    except InfeasibleError:
        assume(False)


class TestBasics:
    def test_already_full_rank(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        b = np.array([3.0, 4.0])
        ar, br, piv = reduced_row_echelon(a, b)
        assert ar.shape == (2, 2)
        assert piv == [0, 1]
        # Same solution set.
        x = np.linalg.solve(a, b)
        np.testing.assert_allclose(ar @ x, br)

    def test_duplicate_row_dropped(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        b = np.array([3.0, 6.0])
        ar, br, _ = reduced_row_echelon(a, b)
        assert ar.shape == (1, 2)

    def test_inconsistent_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        b = np.array([3.0, 7.0])
        with pytest.raises(InfeasibleError, match="inconsistent"):
            reduced_row_echelon(a, b)

    def test_zero_matrix(self):
        ar, br, piv = reduced_row_echelon(np.zeros((3, 2)), np.zeros(3))
        assert ar.shape == (0, 2)
        assert piv == []

    def test_zero_matrix_nonzero_rhs_raises(self):
        with pytest.raises(InfeasibleError):
            reduced_row_echelon(np.zeros((2, 2)), np.array([0.0, 1.0]))

    def test_empty_system(self):
        ar, br, piv = reduced_row_echelon(np.zeros((0, 3)), np.zeros(0))
        assert ar.shape == (0, 3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            reduced_row_echelon(np.eye(2), np.zeros(3))

    def test_row_rank(self):
        a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 0.0]])
        assert row_rank(a) == 2


@st.composite
def consistent_system(draw):
    """Random (possibly rank-deficient) consistent systems Ax = b."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 8))
    a = draw(
        arrays(np.float64, (m, n), elements=st.floats(-5, 5, allow_nan=False))
    )
    x = draw(arrays(np.float64, (n,), elements=st.floats(-3, 3, allow_nan=False)))
    return a, a @ x, x


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(consistent_system())
    # A subnormal pivot: ``tol * scale`` underflows to 0, so only the
    # absolute threshold floor keeps it from being normalised to 1.
    @example((np.array([[5e-324, 0.0]]), np.array([0.0]), np.array([0.5, 0.5])))
    def test_full_row_rank_and_solution_preserved(self, sys_):
        a, b, x = sys_
        ar, br, piv = reduce_or_assume(a, b)
        # The generating solution still satisfies the reduced system.
        np.testing.assert_allclose(ar @ x, br, atol=1e-7)
        # Full row rank: pivots are distinct columns, one per row.
        assert len(piv) == ar.shape[0] == len(set(piv))
        if ar.shape[0]:
            assert np.linalg.matrix_rank(ar) == ar.shape[0]

    @settings(max_examples=60, deadline=None)
    @given(consistent_system())
    def test_row_space_preserved(self, sys_):
        """Any solution of the reduced system solves the original."""
        a, b, _ = sys_
        ar, br, _ = reduce_or_assume(a, b)
        y, *_ = np.linalg.lstsq(ar, br, rcond=None)
        # y is a solution of the reduced system (consistent by construction).
        np.testing.assert_allclose(ar @ y, br, atol=1e-7)
        np.testing.assert_allclose(a @ y, b, atol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(consistent_system())
    def test_pivot_columns_identity_structure(self, sys_):
        """RREF: the pivot columns of the reduced matrix form an identity."""
        a, b, _ = sys_
        ar, _, piv = reduce_or_assume(a, b)
        if piv:
            np.testing.assert_allclose(ar[:, piv], np.eye(len(piv)), atol=1e-9)
