"""Shared infrastructure for the benchmark harness.

Each ``bench_*.py`` file regenerates one table or figure of the paper's
evaluation (see DESIGN.md section 4).  This module provides:

* cached instance construction (the three feeders at paper scale or, in the
  default *quick* mode, a downsized 8500-class instance so the whole
  harness completes in minutes on one core — set ``REPRO_BENCH_FULL=1``
  for paper-scale runs);
* cached decompositions, reference solutions, solves and measured
  per-component costs (expensive artifacts shared across bench files);
* the paper's published numbers for side-by-side reporting;
* a report writer that prints each regenerated table/figure and persists it
  under ``benchmarks/results/``.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path

import numpy as np

from repro.core import ADMMConfig, BenchmarkADMM, SolverFreeADMM
from repro.decomposition import decompose
from repro.feeders import ieee13, ieee123, ieee8500
from repro.formulation import build_centralized_lp
from repro.reference import solve_reference
from repro.utils import format_table

RESULTS_DIR = Path(__file__).parent / "results"

#: Paper-scale instances take tens of minutes on one core; the quick mode
#: downsizes only the 8500-class instance (structure tables still use the
#: full-size instance — they are cheap).
FULL_MODE = os.environ.get("REPRO_BENCH_FULL", "0") == "1"

INSTANCES = ("ieee13", "ieee123", "ieee8500")

#: Published evaluation numbers (for the measured-vs-paper columns).
PAPER = {
    "table2": {"ieee13": (456, 454), "ieee123": (1834, 1834), "ieee8500": (86114, 87285)},
    "table3": {
        "ieee13": {"nodes": 29, "lines": 28, "leaves": 7, "S": 50},
        "ieee123": {"nodes": 147, "lines": 146, "leaves": 43, "S": 250},
        "ieee8500": {"nodes": 11932, "lines": 14291, "leaves": 1222, "S": 25001},
    },
    "table4_m": {
        "ieee13": (4, 22, 9.08, 4.42, 453),
        "ieee123": (2, 42, 7.34, 4.43, 1834),
        "ieee8500": (2, 18, 3.44, 2.66, 86108),
    },
    "table4_n": {
        "ieee13": (8, 34, 16.1, 5.14, 805),
        "ieee123": (4, 57, 13.16, 6.5, 3289),
        "ieee8500": (4, 24, 6.69, 3.21, 167394),
    },
    "table5": {
        "ieee13": {"ours": (16, 4.91, 944), "benchmark": (32, 28.13, 1064)},
        "ieee123": {"ours": (16, 7.25, 3496), "benchmark": (128, 169.67, 3215)},
        "ieee8500": {"ours": (16, 668.30, 15817), "benchmark": (512, 44720.11, 26252)},
    },
    # Fig. 4: total-time speedup of 1 GPU over 16 CPUs (approximate read).
    "fig4_speedup": {"ieee13": 2.0, "ieee123": 5.0, "ieee8500": 50.0},
}


def instance_net(name: str):
    if name == "ieee13":
        return ieee13()
    if name == "ieee123":
        return ieee123()
    if name == "ieee8500":
        return ieee8500() if FULL_MODE else ieee8500(n_buses=1600)
    raise ValueError(f"unknown instance {name!r}")


@functools.lru_cache(maxsize=None)
def get_net(name: str):
    return instance_net(name)


@functools.lru_cache(maxsize=None)
def get_lp(name: str):
    return build_centralized_lp(get_net(name))


@functools.lru_cache(maxsize=None)
def get_dec(name: str, merge_leaves: bool = True):
    return decompose(get_lp(name), merge_leaves=merge_leaves)


@functools.lru_cache(maxsize=None)
def get_ref(name: str):
    return solve_reference(get_lp(name))


#: Iteration budgets for to-convergence runs per instance (quick mode).
SOLVE_BUDGET = {"ieee13": 30_000, "ieee123": 200_000, "ieee8500": 400_000}


@functools.lru_cache(maxsize=None)
def get_solution(name: str):
    """Converged solver-free run with the paper's default settings."""
    cfg = ADMMConfig(max_iter=SOLVE_BUDGET[name], record_history=True)
    return SolverFreeADMM(get_dec(name), cfg).solve()


#: Timings per component local update; each cost is the best of them, on
#: both sides, so one slow timing cannot move a simulated time severalfold.
LOCAL_COST_REPEATS = 3
#: Instances with more components time the benchmark on a sample this size.
LOCAL_COST_SAMPLE = 400


@functools.lru_cache(maxsize=None)
def get_local_costs(name: str) -> tuple[np.ndarray, np.ndarray]:
    """Measured per-component local-update seconds: (ours, benchmark).

    Each component's two costs are timed back to back, so both see the
    host at the same moment.  Each side's inputs are those of its
    ``measure_local_costs``.  Benchmark costs on large instances are
    measured on a size-stratified sample and imputed by subproblem
    dimension (measuring 15k interior-point solves serially would dominate
    the harness runtime without changing the statistics).
    """
    dec = get_dec(name)
    ours_solver, bench = SolverFreeADMM(dec), BenchmarkADMM(dec)
    sizes = np.array([c.n_vars for c in dec.components])
    n = sizes.size
    ours_rng, bench_rng = np.random.default_rng(0), np.random.default_rng(0)
    sample = range(n) if n <= LOCAL_COST_SAMPLE else bench_rng.choice(
        n, size=LOCAL_COST_SAMPLE, replace=False
    )
    bench_v = {int(s): bench_rng.standard_normal(sizes[s]) * 0.1 for s in sample}
    ours, measured = np.empty(n), {}
    for s in range(n):
        ours[s] = ours_solver.local_cost(s, ours_rng.standard_normal(sizes[s]),
                                         LOCAL_COST_REPEATS)
        if s in bench_v:
            measured[s] = bench.local_cost(s, bench_v[s], LOCAL_COST_REPEATS)
    if len(measured) == n:
        return ours, np.array([measured[s] for s in range(n)])
    by_size: dict[int, list[float]] = {}
    for s, cost in measured.items():
        by_size.setdefault(int(sizes[s]), []).append(cost)
    keys = np.array(sorted(by_size))
    vals = np.array([np.mean(by_size[k]) for k in keys])
    return ours, np.interp(sizes, keys, vals)


def report(name: str, text: str) -> None:
    """Print a regenerated table/figure and persist it to results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


__all__ = [
    "FULL_MODE",
    "INSTANCES",
    "PAPER",
    "get_net",
    "get_lp",
    "get_dec",
    "get_ref",
    "get_solution",
    "get_local_costs",
    "report",
    "format_table",
    "SOLVE_BUDGET",
]
