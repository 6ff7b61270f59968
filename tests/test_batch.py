"""Tests for the batched (GPU-kernel-style) local update operators."""

import numpy as np
import pytest

from repro.core.batch import BatchedLocalSolver, projection_data
from repro.qp.projection import bucket_width
from repro.utils.exceptions import DecompositionError


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
        # Power-of-two buckets waste at most 4x (and the minimum width floor).
        assert solver.padded_elements <= 4 * raw + 16 * ieee13_dec.n_components


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
