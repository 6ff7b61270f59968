"""Tests for the batched (GPU-kernel-style) local update operators."""

from functools import lru_cache

import numpy as np
import pytest

from repro.backend import get_backend
from repro.core import ADMMConfig, SolverFreeADMM
from repro.core.batch import DISPATCH, LANE, BatchedLocalSolver, plan_widths, projection_data
from repro.core.consensus import ScenarioStack
from repro.decomposition import decompose
from repro.formulation import build_centralized_lp
from repro.io.resolve import resolve_feeder
from repro.methods.facade import build_method_problem, make_method_solver
from repro.qp.projection import bucket_width
from repro.utils.exceptions import DecompositionError

BACKENDS = ["numpy64", "numpy32"]
#: The linearized builtin feeders and the seven synthetic serve feeders.
PLAN_FEEDERS = [
    "ieee13", "ieee13-der", "ieee34", "ieee123",
    "synthetic:20:0", "synthetic:20:1", "synthetic:20:4", "synthetic:20:8",
    "synthetic:20:11", "synthetic:20:12", "synthetic:20:17",
]


class TestProjectionData:
    def test_projection_properties(self, rng):
        a = rng.standard_normal((3, 7))
        b = rng.standard_normal(3)
        mmat, bbar = projection_data(a, b)
        # M annihilates the row space: A M = 0.
        np.testing.assert_allclose(a @ mmat, 0.0, atol=1e-10)
        # bbar solves the system: A bbar = b.
        np.testing.assert_allclose(a @ bbar, b, atol=1e-10)
        # M is the orthogonal projector onto null(A): idempotent, symmetric.
        np.testing.assert_allclose(mmat @ mmat, mmat, atol=1e-10)
        np.testing.assert_allclose(mmat, mmat.T, atol=1e-10)

    def test_projected_point_satisfies_system(self, rng):
        a = rng.standard_normal((2, 5))
        b = rng.standard_normal(2)
        mmat, bbar = projection_data(a, b)
        v = rng.standard_normal(5)
        z = mmat @ v + bbar
        np.testing.assert_allclose(a @ z, b, atol=1e-10)

    def test_projection_is_closest_point(self, rng):
        """z minimizes ||z - v|| over {A z = b} (eq. (15) optimality)."""
        a = rng.standard_normal((2, 4))
        b = rng.standard_normal(2)
        mmat, bbar = projection_data(a, b)
        v = rng.standard_normal(4)
        z = mmat @ v + bbar
        # Any feasible perturbation within null(A) must not reduce distance.
        ns = mmat @ rng.standard_normal(4)
        for t in (-0.1, 0.1):
            assert np.linalg.norm(z + t * ns - v) >= np.linalg.norm(z - v) - 1e-10

    def test_empty_system_identity(self):
        mmat, bbar = projection_data(np.zeros((0, 4)), np.zeros(0))
        np.testing.assert_allclose(mmat, np.eye(4))
        np.testing.assert_allclose(bbar, 0.0)

    def test_rank_deficient_rejected(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(DecompositionError, match="full row rank"):
            projection_data(a, np.array([1.0, 2.0]))


class TestBucketing:
    def test_widths_power_of_two(self):
        assert bucket_width(1) == 4
        assert bucket_width(4) == 4
        assert bucket_width(5) == 8
        assert bucket_width(33) == 64

    def test_bucket_cover_all_components(self, ieee13_dec):
        solver = BatchedLocalSolver.from_decomposition(ieee13_dec)
        covered = sorted(
            int(s) for b in solver.buckets for s in b.comp_indices
        )
        assert covered == list(range(ieee13_dec.n_components))
        assert len(solver.component_location) == ieee13_dec.n_components

    def test_padding_bounded(self, ieee13_dec):
        solver = BatchedLocalSolver.from_decomposition(ieee13_dec)
        raw = float(np.sum(solver.sizes.astype(float) ** 2))
        # The planned buckets trade padding for fewer dispatches, and on
        # ieee13 still waste at most 4x (and the minimum width floor).
        assert solver.padded_elements <= 4 * raw + 16 * ieee13_dec.n_components


@lru_cache(maxsize=None)
def feeder_dec(feeder):
    return decompose(build_centralized_lp(resolve_feeder(feeder)))


def layout(solver):
    return {b.width: len(b.comp_indices) for b in solver.buckets}


def modeled_cost(widths):
    """``DISPATCH * buckets + padded elements`` of per-component widths."""
    widths = np.asarray(widths)
    return DISPATCH * np.unique(widths).size + int(np.sum(widths**2))


class TestWidthPlan:
    @pytest.mark.parametrize("feeder", PLAN_FEEDERS)
    def test_plan_rules(self, feeder):
        sizes = np.array([c.n_vars for c in feeder_dec(feeder).components])
        widths = np.array(plan_widths(sizes))
        assert np.all(widths % LANE == 0)
        assert np.all(widths >= sizes)
        assert np.all(widths[sizes <= LANE] == LANE)

    @pytest.mark.parametrize("feeder", PLAN_FEEDERS)
    def test_cost_at_most_power_of_two(self, feeder):
        solver = BatchedLocalSolver.from_decomposition(feeder_dec(feeder))
        planned = [b.width for b in solver.buckets for _ in b.comp_indices]
        assert solver.padded_elements == int(np.sum(np.square(planned)))
        pow2 = [bucket_width(int(n)) for n in solver.sizes]
        assert modeled_cost(planned) <= modeled_cost(pow2)

    @pytest.mark.parametrize("feeder, expected", [
        ("ieee13", {24: 17, 56: 4}),
        ("ieee123", {8: 46, 16: 73, 24: 89, 32: 24, 40: 8}),
    ])
    def test_pinned_plans(self, feeder, expected):
        solver = BatchedLocalSolver.from_decomposition(feeder_dec(feeder))
        assert layout(solver) == expected

    def test_socp_linear_components(self):
        problem = build_method_problem(resolve_feeder("ieee13"), "socp")
        assert layout(make_method_solver(problem).linear_solver) == {8: 25, 16: 2}

    def test_plan_ignores_component_order(self):
        sizes = [3, 70, 9, 17, 33, 8, 12]
        widths = dict(zip(sizes, plan_widths(sizes)))
        for order in (sorted(sizes), sizes[::-1]):
            assert plan_widths(order) == [widths[n] for n in order]


def kernel(case, backend):
    """The batched local kernel of one layout-test case."""
    if case == "socp-ieee13":
        problem = build_method_problem(resolve_feeder("ieee13"), "socp")
        return make_method_solver(problem, backend=backend).linear_solver
    if case == "stack-ieee13":
        dec = feeder_dec("ieee13")
        model = dec.model
        stack = ScenarioStack(
            dec,
            cost=[model.cost * (1.0 + 0.05 * k) for k in range(3)],
            lb=[model.lb] * 3,
            ub=[model.ub] * 3,
            x0=[model.initial_point()] * 3,
        )
        return SolverFreeADMM(stack, ADMMConfig(), backend=backend).local_solver
    return BatchedLocalSolver.from_decomposition(
        feeder_dec(case), backend=get_backend(backend)
    )


def power_of_two_product(solver, v):
    """Each component's ``M_s v_s + bbar_s`` as its own zero-padded
    ``(1, w, w) @ (1, w, 1)`` product at the power-of-two width
    ``w = bucket_width(n_s)``, the layout the kernel used before widths
    were planned."""
    dtype = solver.backend.compute_dtype
    z = np.empty(solver.n_local, dtype=dtype)
    first = 0
    for s, n in enumerate(solver.sizes.tolist()):
        bucket_id, row = solver.component_location[s]
        bucket = solver.buckets[bucket_id]
        w = bucket_width(n)
        proj = np.zeros((1, w, w), dtype=dtype)
        proj[0, :n, :n] = bucket.proj[row, :n, :n]
        v_pad = np.zeros((1, w, 1), dtype=dtype)
        v_pad[0, :n, 0] = v[first:first + n]
        z[first:first + n] = np.matmul(proj, v_pad)[0, :n, 0] + bucket.bbar[row, :n]
        first += n
    assert first == solver.n_local
    return z


class TestLayoutBits:
    """The planned widths give the power-of-two layout's bytes.

    Zero padding to a multiple of 8 keeps every product's bits on the BLAS
    these widths were planned on (components of at most 8 entries at width
    8 in fp32); a BLAS that rounds differently fails here."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "case", ["ieee13", "ieee13-der", "ieee123", "socp-ieee13", "stack-ieee13"]
    )
    def test_solve_matches_power_of_two_product(self, case, backend, rng):
        solver = kernel(case, backend)
        dtype = solver.backend.compute_dtype
        for _ in range(3):
            v = rng.standard_normal(solver.n_local).astype(dtype)
            want = power_of_two_product(solver, v)
            assert solver.solve(v).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_every_planned_width_keeps_the_bits(self, dtype, rng):
        """Sizes 1-64 at every width the planner may give them, up to 128."""
        for n in range(1, 65):
            m = rng.standard_normal((n, n)).astype(dtype)
            v = rng.standard_normal(n).astype(dtype)

            def product(w):
                proj = np.zeros((1, w, w), dtype=dtype)
                proj[0, :n, :n] = m
                v_pad = np.zeros((1, w, 1), dtype=dtype)
                v_pad[0, :n, 0] = v
                return np.matmul(proj, v_pad)[0, :n, 0].tobytes()

            widths = [LANE] if n <= LANE else range(-(-n // LANE) * LANE, 129, LANE)
            want = product(bucket_width(n))
            assert all(product(w) == want for w in widths), n


class TestBatchedSolve:
    def test_matches_per_component(self, ieee13_dec, rng):
        solver = BatchedLocalSolver.from_decomposition(ieee13_dec)
        v = rng.standard_normal(ieee13_dec.n_local)
        z = solver.solve(v)
        for s in range(ieee13_dec.n_components):
            sl = ieee13_dec.component_slice(s)
            np.testing.assert_allclose(z[sl], solver.solve_one(s, v[sl]), atol=1e-12)

    def test_output_satisfies_local_systems(self, ieee13_dec, rng):
        solver = BatchedLocalSolver.from_decomposition(ieee13_dec)
        v = rng.standard_normal(ieee13_dec.n_local)
        z = solver.solve(v)
        for s, comp in enumerate(ieee13_dec.components):
            sl = ieee13_dec.component_slice(s)
            np.testing.assert_allclose(comp.a @ z[sl], comp.b, atol=1e-8)

    def test_wrong_length_rejected(self, ieee13_dec):
        solver = BatchedLocalSolver.from_decomposition(ieee13_dec)
        with pytest.raises(ValueError, match="stacked vector"):
            solver.solve(np.zeros(3))

    def test_out_buffer_reused(self, ieee13_dec, rng):
        solver = BatchedLocalSolver.from_decomposition(ieee13_dec)
        v = rng.standard_normal(ieee13_dec.n_local)
        out = np.empty(ieee13_dec.n_local)
        z = solver.solve(v, out=out)
        assert z is out

    def test_deterministic(self, ieee13_dec, rng):
        solver = BatchedLocalSolver.from_decomposition(ieee13_dec)
        v = rng.standard_normal(ieee13_dec.n_local)
        np.testing.assert_array_equal(solver.solve(v.copy()), solver.solve(v.copy()))

    def test_flop_counts_positive(self, ieee13_dec):
        solver = BatchedLocalSolver.from_decomposition(ieee13_dec)
        assert np.all(solver.flops > 0)
        assert solver.flops.shape == (ieee13_dec.n_components,)
