"""Resilience overhead: fault tolerance must be ~free on the clean path.

The hardening of this repo (docs/RESILIENCE.md) adds three things to
fault-free executions:

* the **divergence guard** in the core loops — two scalar ``isfinite``
  tests per iteration on residual norms already being computed;
* **consensus checkpoints** in the distributed runner — a copy of
  ``(z, lambda)`` every ``checkpoint_every`` iterations;
* the serving engine's **injector/breaker gates** — one falsy check per
  iteration and one breaker lookup per batch.

This benchmark measures the first two on a fixed iteration budget of the
123-bus instance (the third rides inside the serving throughput
benchmark).  The checkpoint cost compares the runner at
``checkpoint_every=CHECKPOINT_EVERY`` with the same runner at
``checkpoint_every=ITERATIONS + 1``, which keeps only the initial save.
Target: <5% wall-clock overhead each.
"""

import time

from _common import format_table, get_dec, report

from repro.core import ADMMConfig, SolverFreeADMM
from repro.parallel import CPU_CLUSTER_COMM, DistributedADMMRunner

INSTANCE = "ieee123"
ITERATIONS = 400
N_RANKS = 4
CHECKPOINT_EVERY = 25
REPEATS = 7

#: Gate generously above the 5% target: best-of-N on a shared CI runner
#: still jitters by a few percent, and the report shows the real number.
FAIL_THRESHOLD = 0.15


def _time_best(*fns) -> list[float]:
    """Best-of-REPEATS wall time of each callable, run interleaved so that a
    slow spell on a shared machine hits every configuration alike."""
    best = [float("inf")] * len(fns)
    for _ in range(REPEATS):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def _runner(dec, cfg, checkpoint_every):
    return DistributedADMMRunner(
        dec, N_RANKS, CPU_CLUSTER_COMM, cfg, checkpoint_every=checkpoint_every
    )


def run() -> dict:
    dec = get_dec(INSTANCE)
    guard_on = ADMMConfig(max_iter=ITERATIONS, record_history=False)
    guard_off = ADMMConfig(
        max_iter=ITERATIONS, record_history=False, divergence_guard=False
    )

    # Warm every cache (factorizations, buckets) before timing anything.
    SolverFreeADMM(dec, guard_on).solve()
    _runner(dec, guard_on, CHECKPOINT_EVERY).solve()

    serial_off, serial_on = _time_best(
        lambda: SolverFreeADMM(dec, guard_off).solve(),
        lambda: SolverFreeADMM(dec, guard_on).solve(),
    )
    initial_only, periodic = _time_best(
        lambda: _runner(dec, guard_on, ITERATIONS + 1).solve(),
        lambda: _runner(dec, guard_on, CHECKPOINT_EVERY).solve(),
    )

    guard_overhead = serial_on / serial_off - 1.0
    checkpoint_overhead = periodic / initial_only - 1.0
    rows = [
        ["serial, guard off", f"{serial_off * 1e3:.2f}", "baseline"],
        ["serial, guard on", f"{serial_on * 1e3:.2f}", f"{100 * guard_overhead:+.2f}%"],
        ["distributed, initial checkpoint only", f"{initial_only * 1e3:.2f}", "baseline"],
        [
            f"distributed, checkpoint every {CHECKPOINT_EVERY}",
            f"{periodic * 1e3:.2f}",
            f"{100 * checkpoint_overhead:+.2f}%",
        ],
    ]
    text = format_table(
        ["configuration", "wall ms", "overhead"],
        rows,
        title=(
            f"clean-path resilience overhead ({INSTANCE}, {ITERATIONS} "
            f"iterations, {N_RANKS} ranks, best of {REPEATS}; target <5%)"
        ),
    )
    report("resilience_overhead", text)
    return {
        "guard_overhead": guard_overhead,
        "checkpoint_overhead": checkpoint_overhead,
    }


def test_resilience_overhead_report(benchmark):
    stats = run()
    assert stats["guard_overhead"] < FAIL_THRESHOLD
    assert stats["checkpoint_overhead"] < FAIL_THRESHOLD
    dec = get_dec(INSTANCE)
    cfg = ADMMConfig(max_iter=50, record_history=False)
    benchmark(lambda: _runner(dec, cfg, CHECKPOINT_EVERY).solve())


if __name__ == "__main__":
    stats = run()
    print(
        f"divergence-guard overhead {100 * stats['guard_overhead']:+.2f}%  "
        f"checkpoint overhead {100 * stats['checkpoint_overhead']:+.2f}%"
    )
