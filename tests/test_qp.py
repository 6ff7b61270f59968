"""Tests for the dense interior-point QP solver."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.qp import solve_qp_box_eq
from repro.qp.interior_point import _max_step
from repro.utils.exceptions import QPSolverError


def kkt_check(q, d, a, b, lb, ub, x, tol=1e-6):
    """Verify KKT conditions of a candidate box+equality QP solution."""
    assert np.abs(a @ x - b).max(initial=0.0) < tol, "primal equality"
    assert np.all(x >= lb - tol) and np.all(x <= ub + tol), "bounds"
    # Stationarity on strictly-inside coordinates: grad ⟂ null(A) restricted.
    # The interior-point solver approaches active bounds to O(sqrt(tol)), so
    # the active-set classification needs a margin well above that distance;
    # a coordinate within 1e-5 of its bound is treated as active (its
    # multiplier absorbs the gradient there).
    grad = q @ x + d
    inside = (x > lb + 1e-5) & (x < ub - 1e-5)
    if a.shape[0]:
        y, *_ = np.linalg.lstsq(a[:, inside].T, -grad[inside], rcond=None)
        resid = grad[inside] + a[:, inside].T @ y
    else:
        resid = grad[inside]
    assert np.abs(resid).max(initial=0.0) < 2e-4, "stationarity"


class TestBasics:
    def test_unconstrained_box(self):
        """No equality rows: solution is the clipped unconstrained minimum."""
        q = 2.0 * np.eye(3)
        d = np.array([-2.0, -10.0, 2.0])
        lb = np.array([-1.0, -1.0, -1.0])
        ub = np.array([1.0, 1.0, 1.0])
        r = solve_qp_box_eq(q, d, np.zeros((0, 3)), np.zeros(0), lb, ub)
        assert r.converged
        # Coordinates 1 and 3 are *degenerately* active (zero multiplier), so
        # interior-point accuracy there is O(sqrt(tol)).
        np.testing.assert_allclose(r.x, [1.0, 1.0, -1.0], atol=1e-4)

    def test_equality_only_closed_form(self):
        q = np.eye(2)
        d = np.zeros(2)
        a = np.array([[1.0, 1.0]])
        b = np.array([2.0])
        lb = np.full(2, -np.inf)
        ub = np.full(2, np.inf)
        r = solve_qp_box_eq(q, d, a, b, lb, ub)
        assert r.converged and r.iterations == 1
        np.testing.assert_allclose(r.x, [1.0, 1.0], atol=1e-9)

    def test_active_bound_with_equality(self):
        """min ||x||^2 s.t. x1+x2=2, x1<=0.5 -> x=(0.5, 1.5)."""
        r = solve_qp_box_eq(
            np.eye(2),
            np.zeros(2),
            np.array([[1.0, 1.0]]),
            np.array([2.0]),
            np.array([-np.inf, -np.inf]),
            np.array([0.5, np.inf]),
        )
        assert r.converged
        np.testing.assert_allclose(r.x, [0.5, 1.5], atol=1e-6)

    def test_fixed_variables(self):
        """lb == ub fixes a coordinate; the rest re-solves consistently."""
        r = solve_qp_box_eq(
            np.eye(2),
            np.zeros(2),
            np.array([[1.0, 1.0]]),
            np.array([3.0]),
            np.array([1.0, -np.inf]),
            np.array([1.0, np.inf]),
        )
        assert r.converged
        np.testing.assert_allclose(r.x, [1.0, 2.0], atol=1e-6)

    def test_all_fixed_consistent(self):
        r = solve_qp_box_eq(
            np.eye(2), np.zeros(2),
            np.array([[1.0, 1.0]]), np.array([3.0]),
            np.array([1.0, 2.0]), np.array([1.0, 2.0]),
        )
        assert r.converged
        np.testing.assert_allclose(r.x, [1.0, 2.0])

    def test_all_fixed_inconsistent_raises(self):
        with pytest.raises(QPSolverError, match="violated"):
            solve_qp_box_eq(
                np.eye(2), np.zeros(2),
                np.array([[1.0, 1.0]]), np.array([99.0]),
                np.array([1.0, 2.0]), np.array([1.0, 2.0]),
            )

    def test_inverted_bounds_raise(self):
        with pytest.raises(QPSolverError, match="inconsistent bounds"):
            solve_qp_box_eq(
                np.eye(1), np.zeros(1), np.zeros((0, 1)), np.zeros(0),
                np.array([1.0]), np.array([0.0]),
            )


def test_overflowing_step_ratio_is_a_full_step():
    """A subnormal direction entry overflows ``-v / dv`` to inf, which is
    a full step: no RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _max_step(np.array([1.0]), np.array([-5e-324])) == 1.0
        assert _max_step(np.array([1.0, 2.0]), np.array([-4.0, 1.0])) == 0.995 * 0.25


@st.composite
def random_projection_qp(draw):
    """Random feasible projection QPs: Q=I, d=-v, with a known interior
    feasible point so the constraint set is nonempty."""
    n = draw(st.integers(2, 7))
    m = draw(st.integers(0, 3))
    a = draw(arrays(np.float64, (m, n), elements=st.floats(-2, 2, allow_nan=False)))
    x_feas = draw(arrays(np.float64, (n,), elements=st.floats(-1, 1, allow_nan=False)))
    b = a @ x_feas
    lb = x_feas - draw(
        arrays(np.float64, (n,), elements=st.floats(0.1, 2, allow_nan=False))
    )
    ub = x_feas + draw(
        arrays(np.float64, (n,), elements=st.floats(0.1, 2, allow_nan=False))
    )
    v = draw(arrays(np.float64, (n,), elements=st.floats(-3, 3, allow_nan=False)))
    return v, a, b, lb, ub


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(random_projection_qp())
    def test_kkt_conditions_hold(self, prob):
        v, a, b, lb, ub = prob
        # Row-reduce A first (the solver's contract requires full row rank).
        from repro.decomposition.rowreduce import reduced_row_echelon
        from repro.utils.exceptions import InfeasibleError

        try:
            ar, br, _ = reduced_row_echelon(a, b)
        except InfeasibleError:
            # Near-degenerate draws (a numerically-zero row with a tiny
            # nonzero rhs) are declared inconsistent by the row reduction;
            # the KKT property is about feasible systems only.
            assume(False)
        # Same conditioning caveat as test_projection: near-zero pivots
        # inflate the reduced system by ~1e7, where the fixed KKT
        # tolerance is unreachable in the iteration budget.
        assume(ar.size == 0 or np.abs(ar).max() < 1e4)
        n = len(v)
        r = solve_qp_box_eq(np.eye(n), -v, ar, br, lb, ub)
        assert r.converged
        kkt_check(np.eye(n), -v, ar, br, lb, ub, r.x)

    @settings(max_examples=25, deadline=None)
    @given(random_projection_qp())
    def test_objective_not_worse_than_feasible_candidates(self, prob):
        """The returned minimizer beats clipped feasible probes."""
        v, a, b, lb, ub = prob
        from repro.decomposition.rowreduce import reduced_row_echelon
        from repro.utils.exceptions import InfeasibleError

        try:
            ar, br, _ = reduced_row_echelon(a, b)
        except InfeasibleError:
            assume(False)  # same near-degenerate draws as above
        assume(ar.size == 0 or np.abs(ar).max() < 1e4)  # same conditioning caveat
        n = len(v)
        r = solve_qp_box_eq(np.eye(n), -v, ar, br, lb, ub)
        obj = 0.5 * r.x @ r.x - v @ r.x
        rng = np.random.default_rng(0)
        for _ in range(5):
            cand = np.clip(rng.uniform(lb, ub), lb, ub)
            if ar.shape[0] and np.abs(ar @ cand - br).max() > 1e-8:
                continue  # candidate infeasible; skip
            cand_obj = 0.5 * cand @ cand - v @ cand
            assert obj <= cand_obj + 1e-6
