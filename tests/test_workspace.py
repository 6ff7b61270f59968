"""The per-run workspace of :class:`repro.core.loop.ADMMLoop`.

Every run iterates in its own two alternating iterate sets, so these
tests pin who may hold which array, and for how long:

* a finished result's arrays belong to it, whatever the solver runs next;
* the divergence guard keeps its best state by reference, which must
  still hold the previous iteration's bits when a later iterate goes
  non-finite;
* the public stages called alone, with or without output buffers, give
  the bits the loop computes with its workspace.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import ADMMConfig
from repro.core.consensus import ScenarioStack
from repro.feeders import ieee13
from repro.methods import build_method_problem, make_method_solver
from repro.utils.exceptions import DivergenceError

METHODS = ["linearized", "qp", "socp"]
BACKENDS = ["numpy64", "numpy32"]
HISTORY = ("pres", "dres", "eps_prim", "eps_dual", "rho")


@pytest.fixture(scope="module")
def problems():
    net = ieee13()
    return {m: build_method_problem(net, m) for m in METHODS}


def state_bytes(result):
    """The bytes of a result's state and residual history."""
    arrays = [result.x, result.z, result.lam]
    arrays += [np.asarray(getattr(result.history, name)) for name in HISTORY]
    return [np.asarray(a, dtype=np.float64).tobytes() for a in arrays]


@pytest.mark.parametrize("method", METHODS)
def test_a_second_solve_leaves_the_first_result_intact(problems, method):
    """The benchmark's pattern: a warm-up solve, then the timed one."""
    solver = make_method_solver(problems[method], ADMMConfig(max_iter=40))
    first = solver.solve(max_iter=25)
    kept = state_bytes(first)
    second = solver.solve()
    assert second.iterations == 40
    assert state_bytes(first) == kept
    assert state_bytes(solver.solve(max_iter=25)) == kept
    assert solver.workspace is None  # bound only while a run is in progress


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("k", [2, 3, 8])
def test_guard_returns_the_clean_state_of_the_iteration_before(problems, method, k):
    """NaN written into the local iterate at iteration k: the guard's best
    state, kept by reference, is a clean run's iteration k - 1 bit for bit."""
    cfg = ADMMConfig(max_iter=50, eps_rel=1e-12)
    solver = make_method_solver(problems[method], cfg)
    local_step = solver.local_step
    calls = []

    def poisoned_local_step(bx_eff, z_prev, lam, rho):
        z = local_step(bx_eff, z_prev, lam, rho)
        calls.append(1)
        if len(calls) == k:
            z[0] = np.nan
        return z

    solver.local_step = poisoned_local_step
    with pytest.raises(DivergenceError) as exc_info:
        solver.solve()
    err = exc_info.value
    assert err.iteration == k
    clean = make_method_solver(problems[method], cfg).solve(max_iter=k - 1)
    assert err.result.iterations == k - 1
    assert state_bytes(err.result) == state_bytes(clean)


def scenario_stack(problem, k_n=3):
    """K same-topology scenarios of ``problem`` with per-scenario rho."""
    dec = problem.dec
    model = dec.model
    stack = ScenarioStack(
        dec,
        cost=[model.cost * (1.0 + 0.05 * k) for k in range(k_n)],
        lb=[model.lb] * k_n,
        ub=[model.ub] * k_n,
        x0=[model.initial_point()] * k_n,
        rho=np.array([50.0, 100.0, 200.0])[:k_n],
    )
    return dataclasses.replace(problem, dec=stack)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method", METHODS)
def test_stages_alone_match_the_loop(problems, method, backend):
    """Iteration j + 1 recomputed by the public stages from iteration j's
    state: the same bits as the loop, allocating or into buffers."""
    j = 6
    solver = make_method_solver(
        scenario_stack(problems[method]), ADMMConfig(max_iter=j + 1), backend=backend
    )
    seen = {}

    def keep(iteration, x, z, lam, res):
        seen[iteration] = (x.copy(), z.copy(), lam.copy())

    solver.solve(callback=keep)
    _, z_j, lam_j = seen[j]
    want = [a.tobytes() for a in seen[j + 1]]
    rho = solver.config.rho
    b = solver.backend

    x = solver.global_update(z_j, lam_j, rho)
    bx = x[solver.gcols]
    z = solver.local_update(bx, lam_j, rho)
    lam = solver.dual_update(lam_j, bx, z, rho)
    assert [a.tobytes() for a in (x, z, lam)] == want

    out_x, out_z, out_lam = b.empty(solver.n), b.empty(solver.n_local), b.empty(solver.n_local)
    lam_rho, zl, diff, step = (b.empty(solver.n_local) for _ in range(4))
    assert solver.global_update(z_j, lam_j, rho, out_x, lam_rho, zl) is out_x
    bx = out_x[solver.gcols]
    z = solver.local_update(bx, lam_j, rho, out_z, lam_rho)
    assert solver.dual_update(lam_j, bx, z, rho, out_lam, diff, step) is out_lam
    assert [a.tobytes() for a in (out_x, z, out_lam)] == want
    assert diff.tobytes() == (bx - z).tobytes()
