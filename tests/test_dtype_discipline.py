"""Lint-style dtype discipline: under the fp32 backends, no hot-loop array
is silently promoted back to fp64.

NumPy promotes ``float32 op float64 -> float64``, so one forgotten bare
``np.asarray`` / Python-float constant in the iteration path quietly turns
the "fp32" solve into fp64 with extra casts.  These tests run real solves
under ``numpy32`` and assert every iterate, operator and intermediate the
strategies produce stays in the backend's compute dtype (reductions are
*supposed* to accumulate in fp64 — that is policy, not a leak)."""

import numpy as np
import pytest

from repro.backend import get_backend
from repro.core.baseline import BenchmarkADMM
from repro.core.batch import BatchedLocalSolver
from repro.core.config import ADMMConfig
from repro.core.consensus import ConsensusADMM
from repro.core.solver_free import SolverFreeADMM
from repro.decomposition import decompose
from repro.feeders import ieee13
from repro.formulation import build_centralized_lp
from repro.qp.projection import project_box_affine
from repro.serve import OPFRequest, ScenarioEngine, SolveOptions
from repro.socp.solver import ConicSolverFreeADMM


@pytest.fixture(scope="module")
def dec13():
    return decompose(build_centralized_lp(ieee13()))


def _assert_hot_loop_dtypes(strategy, dtype):
    """Wrap the strategy's update hooks so every array entering or leaving
    the hot loop is dtype-checked on every iteration."""
    checked = {"global": 0, "local": 0, "dual": 0}
    orig_global, orig_local, orig_dual = (
        strategy.global_step, strategy.local_step, strategy.dual_step,
    )

    def global_step(z, lam, rho):
        assert z.dtype == dtype and lam.dtype == dtype
        x = orig_global(z, lam, rho)
        assert x.dtype == dtype, f"global update produced {x.dtype}"
        checked["global"] += 1
        return x

    def local_step(bx_eff, z_prev, lam, rho):
        assert bx_eff.dtype == dtype, f"gather produced {bx_eff.dtype}"
        z = orig_local(bx_eff, z_prev, lam, rho)
        assert z.dtype == dtype, f"local update produced {z.dtype}"
        checked["local"] += 1
        return z

    def dual_step(lam, bx_eff, z, rho):
        out = orig_dual(lam, bx_eff, z, rho)
        assert out.dtype == dtype, f"dual update produced {out.dtype}"
        checked["dual"] += 1
        return out

    strategy.global_step = global_step
    strategy.local_step = local_step
    strategy.dual_step = dual_step
    return checked


class TestSolverFree:
    def test_no_fp64_intermediates(self, dec13):
        solver = SolverFreeADMM(dec13, backend="numpy32", precision="fp32")
        checked = _assert_hot_loop_dtypes(solver, np.float32)
        result = solver.solve(max_iter=50)
        assert checked["global"] == checked["local"] == checked["dual"] == 50
        # Results leave the loop as host fp64.
        assert result.x.dtype == np.float64

    def test_batched_solver_operands_follow_backend(self, dec13):
        b = get_backend("numpy32")
        solver = BatchedLocalSolver.from_decomposition(dec13, backend=b)
        for bucket in solver.buckets:
            assert bucket.proj.dtype == np.float32
            assert bucket.bbar.dtype == np.float32
            assert bucket.v_pad.dtype == np.float32
        v = b.zeros(dec13.n_local)
        assert solver.solve(v).dtype == np.float32

    def test_constants_follow_backend(self, dec13):
        solver = SolverFreeADMM(dec13, backend="numpy32")
        for name in ("c", "lb", "ub", "counts"):
            assert getattr(solver, name).dtype == np.float32, name

    def test_default_backend_stays_fp64(self, dec13, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        solver = SolverFreeADMM(dec13)
        checked = _assert_hot_loop_dtypes(solver, np.float64)
        solver.solve(max_iter=20)
        assert checked["global"] == 20


class TestBenchmark:
    def test_no_fp64_consensus_state(self, dec13):
        solver = BenchmarkADMM(
            dec13, local_mode="projection", backend="numpy32", precision="fp32"
        )
        checked = _assert_hot_loop_dtypes(solver, np.float32)
        solver.solve(max_iter=25)
        assert checked["local"] == 25


class TestConic:
    def test_stacked_state_follows_backend(self):
        from repro.socp import build_bfm_socp, decompose_conic

        sdec = decompose_conic(build_bfm_socp(ieee13()))
        solver = ConicSolverFreeADMM(sdec, backend="numpy32", precision="fp32")
        for name in ("c", "lb", "ub", "counts"):
            assert getattr(solver, name).dtype == np.float32, name

    def test_no_fp64_intermediates(self):
        """Cone projections included, the conic hot loop stays fp32 — and
        the solution still leaves the host boundary as fp64."""
        from repro.socp import build_bfm_socp, decompose_conic

        sdec = decompose_conic(build_bfm_socp(ieee13()))
        solver = ConicSolverFreeADMM(sdec, backend="numpy32", precision="fp32")
        checked = _assert_hot_loop_dtypes(solver, np.float32)
        result = solver.solve(max_iter=40)
        assert checked["global"] == checked["local"] == checked["dual"] == 40
        assert result.x.dtype == np.float64


class TestServe:
    @pytest.mark.parametrize(
        "method, max_iter", [("linearized", 20_000), ("qp", 100), ("socp", 300)]
    )
    def test_stacked_solve_stays_fp32(self, monkeypatch, method, max_iter):
        """A serving batch runs its rung's own update rules (the shared
        ConsensusADMM hooks) over all its scenarios, in fp32 throughout."""
        seen = []
        orig = ConsensusADMM.local_step

        def spy(self, bx_eff, z_prev, lam, rho):
            z = orig(self, bx_eff, z_prev, lam, rho)
            seen.append((self.k_n, bx_eff.dtype, z.dtype, lam.dtype))
            return z

        monkeypatch.setattr(ConsensusADMM, "local_step", spy)
        engine = ScenarioEngine(max_batch=4, backend="numpy32", precision="fp32")
        reqs = [
            OPFRequest(
                request_id=f"s{i}",
                load_scale=1 + 0.01 * i,
                method=method,
                options=SolveOptions(max_iter=max_iter),
            )
            for i in range(3)
        ]
        responses = engine.serve(reqs)
        expected = {"converged"} if method == "linearized" else {"converged", "iteration_limit"}
        assert {r.status for r in responses} <= expected
        assert seen and all(
            entry == (3, np.float32, np.float32, np.float32) for entry in seen
        )

    def test_modeled_gpu_time_uses_backend_itemsize(self):
        """The fp32 cost model halves the modeled memory traffic."""
        eng64 = ScenarioEngine(max_batch=2, backend="numpy64")
        eng32 = ScenarioEngine(max_batch=2, backend="numpy32")
        req = lambda i: OPFRequest(request_id=f"m{i}", load_scale=1.01)  # noqa: E731
        eng64.serve([req(0)])
        eng32.serve([req(1)])
        t64 = eng64.snapshot()["modeled_gpu_iteration_us"]
        t32 = eng32.snapshot()["modeled_gpu_iteration_us"]
        assert t32 < t64


class TestProjection:
    def test_preserves_caller_dtype(self):
        a = np.array([[1.0, 1.0]])
        b = np.array([1.0])
        lb, ub = np.full(2, -2.0), np.full(2, 2.0)
        v32 = np.array([3.0, -3.0], dtype=np.float32)
        out32 = project_box_affine(v32, a, b, lb, ub)
        assert out32.dtype == np.float32
        out64 = project_box_affine(v32.astype(np.float64), a, b, lb, ub)
        assert out64.dtype == np.float64
        np.testing.assert_allclose(out32, out64, atol=1e-6)

    def test_int_input_promotes_to_fp64(self):
        out = project_box_affine(
            np.array([2, -2]), np.zeros((0, 2)), np.zeros(0),
            np.full(2, -1.0), np.full(2, 1.0),
        )
        assert out.dtype == np.float64


class TestRefinementHandoff:
    def test_refinement_segment_runs_fp64(self, dec13):
        """After the stall watch fires, the continuation really is fp64."""
        cfg = ADMMConfig(eps_rel=1e-6, max_iter=60_000)
        solver = SolverFreeADMM(dec13, cfg, backend="numpy32")
        dtypes = []
        result = solver.solve(callback=lambda i, x, z, lam, res: dtypes.append(x.dtype))
        assert result.converged
        assert dtypes[0] == np.float32
        assert dtypes[-1] == np.float64
