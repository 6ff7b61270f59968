"""Tests for the exact box-affine projection (semismooth Newton + fallback)."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import BenchmarkADMM
from repro.decomposition.rowreduce import reduced_row_echelon
from repro.qp import BoxAffineProjector, project_box_affine, solve_qp_box_eq


class TestBasics:
    def test_no_equalities_is_clip(self):
        v = np.array([-2.0, 0.5, 3.0])
        lb = np.array([-1.0, -1.0, -1.0])
        ub = np.array([1.0, 1.0, 1.0])
        np.testing.assert_allclose(
            project_box_affine(v, np.zeros((0, 3)), np.zeros(0), lb, ub),
            [-1.0, 0.5, 1.0],
        )

    def test_interior_affine_projection(self):
        """When the box is inactive the result is the plain affine projection."""
        a = np.array([[1.0, 1.0]])
        b = np.array([1.0])
        v = np.array([0.8, 0.8])
        lb = np.full(2, -10.0)
        ub = np.full(2, 10.0)
        x = project_box_affine(v, a, b, lb, ub)
        p_affine = v - a.T @ np.linalg.solve(a @ a.T, a @ v - b)
        np.testing.assert_allclose(x, p_affine, atol=1e-8)

    def test_known_corner_solution(self):
        """Projection forced onto a box face."""
        a = np.array([[1.0, 1.0]])
        b = np.array([2.0])
        v = np.array([5.0, -5.0])
        lb = np.array([0.0, 0.0])
        ub = np.array([1.5, 1.5])
        x = project_box_affine(v, a, b, lb, ub)
        np.testing.assert_allclose(x, [1.5, 0.5], atol=1e-7)


@st.composite
def feasible_projection(draw):
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, 4))
    a = draw(arrays(np.float64, (m, n), elements=st.floats(-2, 2, allow_nan=False)))
    x_feas = draw(arrays(np.float64, (n,), elements=st.floats(-1, 1, allow_nan=False)))
    lb = x_feas - draw(arrays(np.float64, (n,), elements=st.floats(0.05, 2, allow_nan=False)))
    ub = x_feas + draw(arrays(np.float64, (n,), elements=st.floats(0.05, 2, allow_nan=False)))
    v = draw(arrays(np.float64, (n,), elements=st.floats(-4, 4, allow_nan=False)))
    ar, br, _ = reduced_row_echelon(a, a @ x_feas)
    return v, ar, br, lb, ub


#: A feasible draw whose row-reduced rows differ in scale by ~3e7: both the
#: Newton and the interior-point path stall on it as given.
BADLY_SCALED_ROWS = (
    np.ones(4),
    np.array([[1.0, 0.0, -26879673.31300862, 0.0], [0.0, 1.0, 26879674.31300862, 1.0]]),
    np.array([-3359959.0391260777, 3359959.5391260777]),
    np.full(4, -0.875),
    np.full(4, 1.125),
)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(feasible_projection())
    @example(BADLY_SCALED_ROWS)
    def test_feasibility(self, prob):
        v, a, b, lb, ub = prob
        x = project_box_affine(v, a, b, lb, ub)
        if a.shape[0]:
            # Row reduction can divide by near-zero pivots and inflate the
            # system by orders of magnitude; the solver's termination is
            # relative to that scale, so the feasibility check must be too.
            scale = max(1.0, float(np.abs(a).max()), float(np.linalg.norm(b)))
            assert np.abs(a @ x - b).max() < 1e-6 * scale
        assert np.all(x >= lb - 1e-8) and np.all(x <= ub + 1e-8)

    @settings(max_examples=30, deadline=None)
    @given(feasible_projection())
    def test_idempotency(self, prob):
        """Projecting a projected point is a no-op."""
        v, a, b, lb, ub = prob
        # Same conditioning caveat as test_matches_interior_point: row
        # reduction can inflate the system by ~1e7 on nearly singular
        # draws, where a fixed re-projection tolerance is meaningless.
        assume(a.size == 0 or np.abs(a).max() < 1e4)
        x = project_box_affine(v, a, b, lb, ub)
        x2 = project_box_affine(x, a, b, lb, ub)
        np.testing.assert_allclose(x2, x, atol=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(feasible_projection())
    def test_matches_interior_point(self, prob):
        """Both exact methods agree (they solve the same strictly convex QP)."""
        v, a, b, lb, ub = prob
        # Row reduction divides by near-zero pivots on nearly singular
        # draws, inflating entries by ~1e7; at that conditioning neither
        # method is accurate to the fixed tolerance, so the comparison
        # says nothing — restrict to sanely scaled reduced systems.
        assume(a.size == 0 or np.abs(a).max() < 1e4)
        x_newton = project_box_affine(v, a, b, lb, ub)
        r = solve_qp_box_eq(np.eye(len(v)), -v, a, b, lb, ub)
        assert r.converged
        # Interior-point accuracy degrades to O(sqrt(tol)) on degenerate
        # active sets, hence the loose comparison.
        np.testing.assert_allclose(x_newton, r.x, atol=2e-4)

    @settings(max_examples=30, deadline=None)
    @given(feasible_projection())
    def test_firm_nonexpansiveness(self, prob):
        """Projections onto convex sets are nonexpansive."""
        v, a, b, lb, ub = prob
        rng = np.random.default_rng(1)
        u = v + rng.standard_normal(len(v))
        xu = project_box_affine(u, a, b, lb, ub)
        xv = project_box_affine(v, a, b, lb, ub)
        assert np.linalg.norm(xu - xv) <= np.linalg.norm(u - v) + 1e-8


@st.composite
def projection_batch(draw):
    """1-6 feasible problems of mixed shapes plus one with no equality
    rows, each with a target and a second, unrelated target."""
    problems = draw(st.lists(feasible_projection(), min_size=1, max_size=6))
    v, a, b, lb, ub = draw(feasible_projection())
    problems.insert(draw(st.integers(0, len(problems))), (v, a[:0], b[:0], lb, ub))
    others = [
        draw(arrays(np.float64, (p[0].size,), elements=st.floats(-4, 4, allow_nan=False)))
        for p in problems
    ]
    return problems, others


def _projector(qps):
    """A projector over ``(a, b, lb, ub)`` components, in order."""
    qps = list(qps)
    return BoxAffineProjector(
        [(a, b) for a, b, _, _ in qps],
        np.concatenate([lb for _, _, lb, _ in qps]),
        np.concatenate([ub for _, _, _, ub in qps]),
    )


def _project_batch(problems, targets):
    """Each component's projection by one projector over the whole batch."""
    projector = _projector(p[1:] for p in problems)
    return _split(projector.project(np.concatenate(targets)), problems)


def _split(z, problems):
    bounds = np.cumsum([0] + [p[0].size for p in problems])
    return [z[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


#: A target off its affine set whose box stays inactive: the first full
#: Newton step lands on the projection.
_EASY = (
    np.array([0.3, 0.2, 0.1]), np.array([[1.0, -1.0, 2.0]]), np.array([0.5]),
    np.full(3, -9.0), np.full(3, 9.0),
)


class TestBatchedProjector:
    @settings(max_examples=40, deadline=None)
    @given(projection_batch())
    def test_matches_scalar_projection(self, batch):
        problems, _ = batch
        # The conditioning caveat of test_matches_interior_point.
        assume(all(p[1].size == 0 or np.abs(p[1]).max() < 1e4 for p in problems))
        xs = _project_batch(problems, [p[0] for p in problems])
        for (v, a, b, lb, ub), x in zip(problems, xs):
            if a.shape[0]:
                scale = max(1.0, float(np.abs(a).max()), float(np.linalg.norm(b)))
                assert np.abs(a @ x - b).max() < 1e-6 * scale
            assert np.all(x >= lb) and np.all(x <= ub)
            np.testing.assert_allclose(x, project_box_affine(v, a, b, lb, ub), rtol=0, atol=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(projection_batch())
    def test_result_independent_of_batch_and_cache(self, batch):
        """A component's bytes are the same projected alone, in a mixed
        batch, as the middle scenario of a K = 3 stack, and by a
        projector whose cache holds the masks of other targets."""
        problems, others = batch
        targets = [p[0] for p in problems]
        alone = [_project_batch([p], [p[0]])[0] for p in problems]
        mixed = _project_batch(problems, targets)
        stacked = _project_batch(problems * 3, others + targets + others[::-1])
        warm = _projector(p[1:] for p in problems)
        warm.project(np.concatenate(others))
        cached = _split(warm.project(np.concatenate(targets)), problems)
        for k, x in enumerate(alone):
            assert mixed[k].tobytes() == x.tobytes()
            assert stacked[len(problems) + k].tobytes() == x.tobytes()
            assert cached[k].tobytes() == x.tobytes()

    def test_rejected_full_step_is_the_scalar_projection(self):
        """Components whose first full Newton step fails the sufficient
        decrease test are projected by the scalar routine, bytes and all.
        In the corner case every bound is active at v, so the first
        Jacobian is the bare regularization; the second case would still
        converge without the line search, to other bytes."""
        corner = (
            np.array([5.0, -5.0]), np.array([[1.0, 1.0]]), np.array([2.0]),
            np.zeros(2), np.full(2, 1.5),
        )
        overshoot = (
            np.array([-3.9, 1.7, -0.8, 0.0]), np.array([[-1.7, 0.9, 1.4, 1.6]]),
            np.array([-1.49]), np.array([-1.3, -1.7, -1.0, -1.3]),
            np.array([0.7, 0.8, 0.2, 1.2]),
        )
        problems = [_EASY, corner, overshoot]
        projector = _projector(p[1:] for p in problems)
        xs = _split(projector.project(np.concatenate([p[0] for p in problems])), problems)
        assert projector.fallbacks == 2
        for p, x in zip(problems[1:], xs[1:]):
            assert x.tobytes() == project_box_affine(*p).tobytes()

    def test_mask_repeat_reuses_the_cached_inverse(self, ieee13_dec):
        """Projecting an ADMM target again rebuilds only the components
        that took more than one Newton pass (a later pass's mask replaced
        the first pass's in their one cache slot)."""
        solver = BenchmarkADMM(ieee13_dec, local_mode="projection", backend="numpy64")
        state = solver.solve(max_iter=200)
        v = state.x[solver.gcols] + state.lam / solver.config.rho
        projector = _projector(qp[1:] for qp in solver.qps)
        first = projector.project(v)
        rebuilds = projector.rebuilds
        assert projector.project(v).tobytes() == first.tobytes()
        assert projector.rebuilds - rebuilds <= 2 * (rebuilds - len(solver.qps))

    def test_non_finite_target_is_nan_without_a_solve(self, monkeypatch):
        projector = _projector([_EASY[1:], _EASY[1:]])
        monkeypatch.setattr(
            "repro.qp.projection.project_box_affine",
            lambda *args: pytest.fail("non-finite target reached the scalar routine"),
        )
        z = projector.project(np.concatenate([[0.1, np.inf, 0.3], _EASY[0]]))
        assert np.isnan(z[:3]).all()
        np.testing.assert_allclose(z[3] - z[4] + 2 * z[5], 0.5, atol=1e-12)
