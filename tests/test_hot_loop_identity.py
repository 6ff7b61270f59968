"""The ADMM hot loop against a plain-NumPy transcription of Algorithm 1.

``reference_solve`` computes every iteration the straightforward way: a
per-bucket fancy-index local kernel (scatter into a zero-padded vector,
one matmul, add ``bbar``, gather back), ``np.clip`` for the bounds and
five ``np.linalg.norm`` calls for the residuals (16).  The library's
loop spends far less dispatch on each iteration; it must still produce
the same bits, on numpy64 and numpy32, for a single solve and for a
stack of scenarios with per-scenario rho.  Comparing two live
computations, not a stored digest, keeps the check independent of the
machine's BLAS.
"""

import numpy as np
import pytest

from repro.backend import get_backend
from repro.core import ADMMConfig, SolverFreeADMM
from repro.core.consensus import ScenarioStack
from repro.decomposition import decompose
from repro.feeders import ieee13, ieee123
from repro.formulation import build_centralized_lp
from repro.methods.facade import build_method_problem, make_method_solver

BACKENDS = ["numpy64", "numpy32"]


def reference_kernel(solver, v):
    """``z_s = M_s v_s + bbar_s`` bucket by bucket, through fancy indexing."""
    z = np.empty(solver.n_local, dtype=solver.backend.compute_dtype)
    for bucket in solver.buckets:
        rows, width = bucket.proj.shape[0], bucket.width
        pad_idx = np.concatenate([
            row * width + np.arange(solver.sizes[s])
            for row, s in enumerate(bucket.comp_indices)
        ])
        v_pad = np.zeros(rows * width, dtype=bucket.proj.dtype)
        v_pad[pad_idx] = v[bucket.stack_idx]
        z_pad = np.matmul(bucket.proj, v_pad.reshape(rows, width, 1)).reshape(-1)
        z_pad += bucket.bbar.reshape(-1)
        z[bucket.stack_idx] = z_pad[pad_idx]
    return z


def reference_solve(solver, budget):
    """Algorithm 1 (plain ADMM, fixed rho) on ``solver``'s data.

    Returns the final ``(x, z, lam)``, the iteration count and the
    residual histories.
    """
    cfg = solver.config
    rho = cfg.rho
    rho_g, rho_l = solver.rho_vectors(rho)
    gcols, counts, c = solver.gcols, solver.counts, solver.c
    dtype = solver.backend.compute_dtype
    x, z, lam = solver.initial_state()

    def norm(v):
        return float(np.linalg.norm(np.asarray(v, dtype=np.float64)))

    history = {"pres": [], "dres": [], "eps_prim": [], "eps_dual": []}
    for iteration in range(1, budget + 1):
        scatter = np.bincount(gcols, weights=z - lam / rho_l, minlength=counts.size)
        xhat = (scatter.astype(dtype, copy=False) - c / rho_g) / counts
        x = np.clip(xhat, solver.lb, solver.ub)
        bx = x[gcols]
        z_prev = z
        z = reference_kernel(solver.local_solver, bx + lam / rho_l)
        lam = lam + rho_l * (bx - z)
        pres = norm(bx - z)
        dres = float(rho * norm(z - z_prev))
        eps_prim = float(cfg.eps_rel * max(norm(bx), norm(z)))
        eps_dual = float(cfg.eps_rel * norm(lam))
        for name, value in zip(history, (pres, dres, eps_prim, eps_dual)):
            history[name].append(value)
        if pres <= eps_prim and dres <= eps_dual:
            break
    return (x, z, lam), iteration, history


def host_bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


def assert_same_run(solver, budget):
    result = solver.solve(max_iter=budget)
    assert "refinement" not in result.algorithm
    state, iterations, history = reference_solve(solver, budget)
    assert result.iterations == iterations
    for got, want in zip((result.x, result.z, result.lam), state):
        assert host_bits(got) == host_bits(want)
    for name, values in history.items():
        assert getattr(result.history, name) == values, name
    return result


@pytest.fixture(scope="module")
def dec13():
    return decompose(build_centralized_lp(ieee13()))


@pytest.mark.parametrize("backend", BACKENDS)
def test_ieee13_solve_is_bit_identical(dec13, backend):
    solver = SolverFreeADMM(dec13, ADMMConfig(max_iter=20_000), backend=backend)
    result = assert_same_run(solver, 20_000)
    assert result.converged and result.iterations == 3841


@pytest.mark.parametrize("backend", BACKENDS)
def test_scenario_stack_with_per_scenario_rho_is_bit_identical(dec13, backend):
    model = dec13.model
    stack = ScenarioStack(
        dec13,
        cost=[model.cost * (1.0 + 0.05 * k) for k in range(3)],
        lb=[model.lb] * 3,
        ub=[model.ub] * 3,
        x0=[model.initial_point()] * 3,
        rho=np.array([50.0, 100.0, 200.0]),
    )
    solver = SolverFreeADMM(stack, ADMMConfig(max_iter=3000), backend=backend)
    assert_same_run(solver, 3000)


@pytest.fixture(scope="module")
def kernels():
    """The batched kernels of ieee123 and of the socp rung's linear
    components on ieee13, per backend."""
    dec123 = decompose(build_centralized_lp(ieee123()))
    socp = build_method_problem(ieee13(), "socp")
    out = {}
    for backend in BACKENDS:
        out["ieee123", backend] = SolverFreeADMM(dec123, backend=backend).local_solver
        out["socp-linear", backend] = make_method_solver(socp, backend=backend).linear_solver
    return out


@pytest.mark.parametrize("case", ["ieee123", "socp-linear"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_batched_kernel_is_bit_identical(kernels, case, backend):
    solver = kernels[case, backend]
    b = get_backend(backend)
    rng = np.random.default_rng(0)
    for scale in (1e-6, 1.0, 1e6):
        v = b.asarray(rng.standard_normal(solver.n_local) * scale)
        want = reference_kernel(solver, v).tobytes()
        assert solver.solve(v).tobytes() == want
        out = b.empty(solver.n_local)
        assert solver.solve(v, out=out) is out
        assert out.tobytes() == want
