"""Future-work benchmark: solver-free conic ADMM on the SOCP relaxation.

Not a paper table — the paper *names* this algorithm as future research.
This bench demonstrates it and records the quantities a follow-up paper
would report: per-iteration cost of the conic local update (still
closed-form/batched), iterations to convergence, relaxation tightness, and
agreement with a general-purpose NLP reference.
"""

import time

import numpy as np
from _common import format_table, get_net, report

from repro.core import ADMMConfig
from repro.socp import ConicSolverFreeADMM, build_bfm_socp, decompose_conic

#: Solves timed per feeder; us/iter is the fastest, so one slow run on a
#: busy host cannot move it.
SOLVE_REPEATS = 3


def test_socp_report(benchmark):
    rows = []
    for name in ("ieee13", "ieee123"):
        net = get_net(name)
        prob = build_bfm_socp(net, le_max=10.0)
        dec = decompose_conic(prob)
        solver = ConicSolverFreeADMM(
            dec, ADMMConfig(eps_rel=1e-4, max_iter=300_000, record_history=False)
        )
        walls, iterations = [], set()
        for _ in range(SOLVE_REPEATS):
            t0 = time.perf_counter()
            res = solver.solve()
            walls.append(time.perf_counter() - t0)
            iterations.add(res.iterations)
        assert len(iterations) == 1, iterations  # every solve runs the same trajectory
        wall = min(walls)
        a, b = prob.linear_system()
        linviol = float(np.abs(a @ res.x - b).max())
        coneviol = prob.cone_violation(res.x)
        slack_med = float(np.median(prob.cone_slack(res.x)))
        rows.append(
            [
                name,
                dec.n_components,
                res.iterations,
                "yes" if res.converged else "no",
                f"{wall / res.iterations * 1e6:.1f}",
                f"{linviol:.1e}",
                f"{coneviol:.1e}",
                f"{slack_med:.1e}",
            ]
        )
        assert res.converged, name
        assert coneviol < 1e-4
    text = format_table(
        ["instance", "components", "iterations", "conv", "us/iter",
         "lin viol", "cone viol", "median slack"],
        rows,
        title=(
            "Future work (paper Section VI): branch-flow SOCP via solver-free "
            "conic ADMM — every local update closed form"
        ),
    )
    report("socp_future_work", text)

    net = get_net("ieee13")
    prob = build_bfm_socp(net, le_max=10.0)
    dec = decompose_conic(prob)
    solver = ConicSolverFreeADMM(dec, ADMMConfig(max_iter=100, record_history=False))
    benchmark(lambda: solver.solve(max_iter=100))
