"""The instrumentation contract of :class:`repro.core.loop.ADMMLoop`.

Timing probes and tests wrap the loop's steps from outside: instance
wrappers on ``global_step``, ``local_step`` and ``dual_step``, and a
replacement for ``repro.core.loop.compute_residuals``, installed before
``solve()``.  The loop looks them up once per run, so each must run once
per iteration and be handed the loop's own arrays; once removed, the
solver must solve exactly as a fresh one does.  Covered: every rung, a
K = 2 linearized serving stack, and an fp32 solve that refines into fp64
(whose fp64 twin is a fresh solver: the instance wrappers stay with the
fp32 segment, the module-level replacement sees both).
"""

import numpy as np
import pytest

import repro.core.loop as loop_module
from repro.core import ADMMConfig
from repro.core.residuals import compute_residuals
from repro.feeders import ieee13
from repro.methods import build_method_problem, make_method_solver
from repro.serve import OPFRequest, SolveOptions, TopologyPlan

STEPS = ("global_step", "local_step", "dual_step")
HISTORY = ("pres", "dres", "eps_prim", "eps_dual", "rho")


def serving_stack():
    plan = TopologyPlan("ieee13")
    requests = [
        OPFRequest(request_id=f"k{k}", load_scale=scale, options=SolveOptions(rho=rho))
        for k, (scale, rho) in enumerate([(0.98, 80.0), (1.02, 120.0)])
    ]
    return plan.stacked([plan.build_scenario(r) for r in requests])


def make_case(case):
    """A factory of fresh solvers for one covered case."""
    if case == "stack":
        problem, backend, config = serving_stack(), "numpy64", ADMMConfig(max_iter=60)
    elif case == "refined":
        problem = build_method_problem(ieee13(), "linearized")
        backend, config = "numpy32", ADMMConfig(eps_rel=1e-6, max_iter=60_000)
    else:
        problem, backend = build_method_problem(ieee13(), case), "numpy64"
        config = ADMMConfig(max_iter=60)
    return lambda: make_method_solver(problem, config, backend=backend)


def state_bytes(result):
    arrays = [result.x, result.z, result.lam]
    arrays += [np.asarray(getattr(result.history, name)) for name in HISTORY]
    return [np.asarray(a, dtype=np.float64).tobytes() for a in arrays]


class Recorder:
    """Wrappers that log every call with the arrays it was handed."""

    def __init__(self, solver, monkeypatch):
        self.calls = []
        self.solver = solver
        for name in STEPS:
            setattr(solver, name, self.wrap(name, getattr(solver, name)))
        monkeypatch.setattr(
            loop_module, "compute_residuals",
            self.wrap("residuals", loop_module.compute_residuals),
        )

    def wrap(self, name, step):
        def wrapper(*args, **kwargs):
            out = step(*args, **kwargs)
            self.calls.append((name, args, out))
            return out

        return wrapper

    def remove(self, monkeypatch):
        for name in STEPS:
            delattr(self.solver, name)
        monkeypatch.undo()


@pytest.mark.parametrize("case", ["linearized", "qp", "socp", "stack", "refined"])
def test_wrappers_run_once_per_iteration_on_the_loops_arrays(case, monkeypatch):
    make = make_case(case)
    solver = make()
    recorder = Recorder(solver, monkeypatch)
    seen = []
    result = solver.solve(callback=lambda i, x, z, lam, res: seen.append((x, z, lam, res)))
    calls = recorder.calls
    assert len(seen) == result.iterations

    # The instance wrappers run on the solver they were installed on: all
    # of a plain solve, the fp32 segment of a refined one.
    wrapped = sum(x.dtype == solver.backend.compute_dtype for x, _, _, _ in seen)
    if case == "refined":
        assert "refinement" in result.algorithm and 0 < wrapped < result.iterations
    else:
        assert wrapped == result.iterations
    residuals = [c for c in calls if c[0] == "residuals"]
    assert len(residuals) == result.iterations
    steps = [c for c in calls if c[0] != "residuals"]
    assert [c[0] for c in steps] == list(STEPS) * wrapped

    # Each wrapper is handed the loop's arrays: what the previous step
    # returned, and what the callback then sees.
    residual_of = iter(residuals)
    for k in range(wrapped):
        (_, (z_in, lam_in, _), x), local, dual = steps[3 * k : 3 * k + 3]
        (_, (bx, z_prev, lam_l, _), z), (_, (lam_d, bx_d, z_d, _), lam) = local, dual
        assert z_prev is z_in and lam_l is lam_in and lam_d is lam_in
        assert bx_d is bx and z_d is z
        _, r_args, res = next(residual_of)
        assert r_args[0] is bx and r_args[1] is z and r_args[2] is z_prev and r_args[3] is lam
        cb_x, cb_z, cb_lam, cb_res = seen[k]
        assert cb_x is x and cb_z is z and cb_lam is lam and cb_res is res
        if k:
            _, prev_z, prev_lam, _ = seen[k - 1]
            assert z_in is prev_z and lam_in is prev_lam

    # Without the wrappers the solver solves as a fresh one does.
    recorder.remove(monkeypatch)
    assert loop_module.compute_residuals is compute_residuals
    assert state_bytes(solver.solve()) == state_bytes(make().solve())
