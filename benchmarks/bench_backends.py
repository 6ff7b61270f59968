"""Per-backend performance: iterations/sec, time-to-tolerance, modeled GPU
time — the perf trajectory of the array-execution layer.

Runs the solver-free ADMM on IEEE13 under every registered backend that is
available on this machine (``numpy64``, ``numpy32``, and ``cupy`` when a
CUDA device is present) and writes the machine-readable scoreboard to
``BENCH_backends.json`` at the repository root.  Unavailable backends are
recorded as such rather than skipped silently, so the JSON schema is stable
across machines.

The headline number is ``speedup_numpy32``: the median wall-clock of the
fp64 solve over the median of the fp32 solve to the same tolerance, from
``ROUNDS`` alternating rounds (each backend's quartiles are recorded too).  On NumPy the win comes from
halved memory traffic in the batched matmuls and vector kernels; the
modeled GPU iteration time (reported per backend via the roofline model's
``itemsize``) shows the same effect for device execution.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
from _common import get_dec, report

from repro.backend import available_backends, backend_names, get_backend
from repro.core import ADMMConfig, SolverFreeADMM
from repro.gpu.costmodel import iteration_times
from repro.gpu.device import A100
from repro.utils import format_table

INSTANCE = "ieee13"
#: Timed solves per backend.  The backends alternate round by round and
#: swap which goes first each round, so a burst of load on a shared host
#: lands on both rather than on whichever ran second.
ROUNDS = 7
OUTPUT = Path(__file__).parent.parent / "BENCH_backends.json"


def _time_alternating(solvers: dict) -> tuple[dict, dict]:
    """Wall seconds of ``ROUNDS`` interleaved solves per solver, and each
    solver's last result."""
    times = {name: [] for name in solvers}
    results = {}
    order = list(solvers)
    for _ in range(ROUNDS):
        for name in order:
            t0 = time.perf_counter()
            results[name] = solvers[name].solve()
            times[name].append(time.perf_counter() - t0)
        order.reverse()
    return times, results


def _entry(dec, backend, result, times: list[float]) -> dict:
    q1, median, q3 = (float(q) for q in np.percentile(times, [25, 50, 75]))
    modeled = iteration_times(A100, dec, itemsize=backend.policy.itemsize)
    return {
        "available": True,
        "precision": backend.policy.name,
        "compute_dtype": str(backend.compute_dtype),
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "objective": float(result.objective),
        "algorithm": result.algorithm,
        "time_to_tolerance_s": median,
        "time_to_tolerance_quartiles_s": [q1, median, q3],
        "iterations_per_s": result.iterations / median if median > 0 else None,
        "modeled_gpu_iteration_us": 1e6 * modeled.total_s,
    }


def run() -> dict:
    dec = get_dec(INSTANCE)
    cfg = ADMMConfig(record_history=False)
    available = available_backends()
    # Every solver is built before any is timed.
    solvers = {
        name: SolverFreeADMM(dec, cfg, backend=get_backend(name))
        for name in backend_names()
        if name in available
    }
    times, results = _time_alternating(solvers)
    backends = {
        name: _entry(dec, solvers[name].backend, results[name], times[name])
        if name in solvers
        else {"available": False}
        for name in backend_names()
    }
    stats = {
        "instance": INSTANCE,
        "eps_rel": cfg.eps_rel,
        "rho": cfg.rho,
        "rounds": ROUNDS,
        "backends": backends,
    }
    b64, b32 = backends["numpy64"], backends["numpy32"]
    # The ratio of medians: one slow round moves neither.
    stats["speedup_numpy32"] = (
        b64["time_to_tolerance_s"] / b32["time_to_tolerance_s"]
    )
    OUTPUT.write_text(json.dumps(stats, indent=2) + "\n")

    rows = []
    for name, b in backends.items():
        if not b["available"]:
            rows.append([name, "-", "-", "-", "-", "-", "unavailable"])
            continue
        q1, _, q3 = b["time_to_tolerance_quartiles_s"]
        rows.append([
            name,
            b["precision"],
            b["iterations"],
            f"{1e3 * b['time_to_tolerance_s']:.1f}",
            f"{1e3 * q1:.1f}-{1e3 * q3:.1f}",
            f"{b['iterations_per_s']:,.0f}",
            f"{b['modeled_gpu_iteration_us']:.2f}",
        ])
    report(
        "bench_backends",
        format_table(
            ["backend", "precision", "iters", "ms to tol", "ms q1-q3", "iters/s",
             "gpu us/iter"],
            rows,
            title=(
                f"Backend scoreboard — {INSTANCE}, eps_rel {cfg.eps_rel:g}, "
                f"median of {ROUNDS} alternating rounds "
                f"(fp32 speedup {stats['speedup_numpy32']:.2f}x)"
            ),
        ),
    )
    return stats


def test_backend_scoreboard():
    stats = run()
    b64 = stats["backends"]["numpy64"]
    b32 = stats["backends"]["numpy32"]
    assert b64["converged"] and b32["converged"]
    rel = abs(b32["objective"] - b64["objective"]) / abs(b64["objective"])
    assert rel < 1e-4
    assert stats["speedup_numpy32"] > 0
    assert OUTPUT.exists()


if __name__ == "__main__":
    stats = run()
    print(f"wrote {OUTPUT}")
