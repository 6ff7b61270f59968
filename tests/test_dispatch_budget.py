"""The dispatch budget of one ADMM iteration, on every rung.

An ieee13 iteration does under a microsecond of arithmetic, so what an
iteration costs is mostly calls: the steps the loop binds once per run
must stay the only Python-level dispatch around the NumPy operations.
The counts are ``sys.setprofile`` events per iteration, taken as the
difference between a 400- and a 200-iteration solve of a solver that
has solved once (so set-up, first-call caches and result packaging
cancel), with the garbage collector off:

* ``call`` - Python functions called by or in this package, so NumPy's
  own Python helpers (which differ between NumPy releases) count once,
  where this package calls them;
* ``c_call`` - builtin functions and methods called from this package.

Both repeat exactly from run to run.  The Python budget is what prebound
steps reach; the C budget is what the per-call hooks they replaced made
(33 / 65.895 / 38 Python calls there, linearized / qp / socp).  The socp
budgets are what the structure-of-arrays cone kernel and the local step's
views, bound once per iterate set, reach: 16 Python and 29 C calls
(17 and 36 under the previous kernel).
"""

import gc
import os
import sys

import pytest

import repro
from repro.feeders import ieee13
from repro.methods import build_method_problem, make_method_solver

METHODS = ["linearized", "qp", "socp"]
BACKENDS = ["numpy64", "numpy32"]

#: Python calls per iteration, by method (the same under both backends).
PYTHON_CALLS = {"linearized": 12.0, "qp": 50.895, "socp": 16.0}
#: C calls per iteration, by (backend, method).
C_CALLS = {
    ("numpy64", "linearized"): 29.0,
    ("numpy64", "qp"): 76.44,
    ("numpy64", "socp"): 29.0,
    ("numpy32", "linearized"): 31.0,
    ("numpy32", "qp"): 78.44,
    ("numpy32", "socp"): 29.0,
}

PACKAGE = os.path.dirname(repro.__file__)


@pytest.fixture(scope="module")
def problems():
    net = ieee13()
    return {m: build_method_problem(net, m) for m in METHODS}


def count_calls(solver, iterations):
    """``(python, c)`` profile events of ``solver.solve(max_iter=iterations)``."""
    ours = {}

    def in_package(code):
        hit = ours.get(code)
        if hit is None:
            hit = ours[code] = code.co_filename.startswith(PACKAGE)
        return hit

    counts = [0, 0]

    def profile(frame, event, arg):
        if event == "call":
            caller = frame.f_back
            if in_package(frame.f_code) or (caller is not None and in_package(caller.f_code)):
                counts[0] += 1
        elif event == "c_call" and in_package(frame.f_code):
            counts[1] += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = solver.solve(max_iter=iterations)
    finally:
        sys.setprofile(None)
        gc.enable()
    assert result.iterations == iterations
    return counts


def per_iteration(solver):
    solver.solve(max_iter=5)
    short = count_calls(solver, 200)
    long = count_calls(solver, 400)
    return tuple((b - a) / 200 for a, b in zip(short, long))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method", METHODS)
def test_iteration_stays_within_its_dispatch_budget(problems, method, backend):
    solver = make_method_solver(problems[method], backend=backend)
    python_calls, c_calls = per_iteration(solver)
    assert python_calls <= PYTHON_CALLS[method]
    assert c_calls <= C_CALLS[backend, method]


def test_counts_repeat_exactly(problems):
    solver = make_method_solver(problems["linearized"], backend="numpy64")
    assert per_iteration(solver) == per_iteration(solver)
