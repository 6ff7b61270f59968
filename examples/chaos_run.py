"""Chaos run: a seeded fault storm against the simulated-MPI runner.

The distributed solver of the paper assumes healthy ranks; real clusters
crash, straggle and drop packets.  This example runs the acceptance
scenario of docs/RESILIENCE.md end to end:

* rank 2 **crashes** (fail-stop) at iteration 40,
* rank 1 runs **10x slow** from iteration 10,

against :class:`repro.parallel.DistributedADMMRunner` with consensus
checkpoints every 25 iterations.  The runner detects the crash through the
missed gather deadline, restores the iteration-25 checkpoint, reassigns the
dead rank's components to the survivors — and, because checkpoints capture
the exact consensus state ``(z, lam, rho)``, the recovered trajectory is
**bit-identical** to a fault-free run.  The script verifies that claim and
prints the failover timeline plus the telemetry counters.

Everything is seeded: rerunning the script reproduces the same faults, the
same recovery, and the same iterates.

Run:  python examples/chaos_run.py
"""

import numpy as np

from repro.core import ADMMConfig
from repro.decomposition import decompose
from repro.feeders import ieee13
from repro.formulation import build_centralized_lp
from repro.parallel import CPU_CLUSTER_COMM, DistributedADMMRunner
from repro.resilience import FaultPlan, RankCrash, StragglerSlowdown

N_RANKS = 4
CHECKPOINT_EVERY = 25


def main() -> None:
    dec = decompose(build_centralized_lp(ieee13()))
    cfg = ADMMConfig(max_iter=20_000)

    plan = FaultPlan(
        seed=7,
        faults=(
            RankCrash(rank=2, at_iteration=40),
            StragglerSlowdown(rank=1, factor=10.0, from_iteration=10),
        ),
    )
    print(f"fault plan (seed {plan.seed}):")
    for fault in plan.faults:
        print(f"  - {fault}")

    chaos = DistributedADMMRunner(
        dec,
        N_RANKS,
        CPU_CLUSTER_COMM,
        cfg,
        fault_plan=plan,
        checkpoint_every=CHECKPOINT_EVERY,
    ).solve()
    clean = DistributedADMMRunner(dec, N_RANKS, CPU_CLUSTER_COMM, cfg).solve()

    result = chaos.result
    print(f"\nconverged: {result.converged} after {result.iterations} iterations")
    print(f"objective: {result.objective:.6f}")
    assert result.converged, "chaos run must still converge"

    print("\nfailover timeline:")
    for event in chaos.failovers:
        print(
            f"  iteration {event.iteration}: rank {event.rank} declared dead, "
            f"resumed from checkpoint {event.resumed_from}, "
            f"survivors {list(event.survivors)}"
        )

    # The recovery guarantee: identical trajectory, bit for bit.
    assert np.array_equal(result.x, clean.result.x), "x diverged from clean run"
    assert np.array_equal(result.z, clean.result.z), "z diverged from clean run"
    assert result.iterations == clean.result.iterations
    print("\nrecovered trajectory is bit-identical to the fault-free run")
    print(
        f"simulated wall time: {chaos.simulated_total_s:.4f}s chaotic vs "
        f"{clean.simulated_total_s:.4f}s clean "
        f"(straggler + failover cost, virtual clocks)"
    )

    print("\ntelemetry counters:")
    for name, value in sorted(chaos.metrics.snapshot().items()):
        print(f"  {name:30s} {value}")


if __name__ == "__main__":
    main()
