"""Table V: total time and iterations to convergence, ours vs benchmark.

Methodology (see EXPERIMENTS.md): iteration counts come from real runs of
each algorithm; wall times are *simulated-cluster* times — measured
per-component local-update costs replayed on the paper's rank counts (ours
on 16 CPUs; benchmark on 32/128/512) plus measured aggregator-side
global/dual costs.  The benchmark's iteration count is run to convergence
(through the batched exact projections of its ``projection`` local mode)
on the 13- and 123-bus instances, and on all instances under
``REPRO_BENCH_FULL=1``; the quick-mode 8500-class count is the
solver-free one as a stand-in, which the paper's own Table V justifies
(comparable counts, benchmark usually needing somewhat more).

The claims under test: the solver-free algorithm is faster on *every*
instance despite using far fewer CPUs, and the gap widens with size.

Each measured run also reports its answer's primal violation
(``ADMMResult.primal_violation``), and each instance its LP's degrees of
freedom (``CentralizedLP.degrees_of_freedom``): with none, the LP has one
feasible point, and an iteration count measures how fast ADMM solves a
square linear system rather than how fast it optimizes.
"""

from _common import (
    FULL_MODE,
    INSTANCES,
    PAPER,
    format_table,
    get_dec,
    get_local_costs,
    get_lp,
    get_solution,
    report,
)

from repro.core import ADMMConfig, BenchmarkADMM
from repro.parallel import CPU_CLUSTER_COMM, SimulatedCluster

#: Rank counts used in the paper's Table V.
OUR_CPUS = {"ieee13": 16, "ieee123": 16, "ieee8500": 16}
BENCH_CPUS = {"ieee13": 32, "ieee123": 128, "ieee8500": 512}


def aggregator_times_per_iter(name: str) -> tuple[float, float]:
    sol = get_solution(name)
    return (
        sol.timers["global"] / sol.iterations,
        sol.timers["dual"] / sol.iterations,
    )


def benchmark_run(name: str):
    """The benchmark ADMM's run to convergence, or ``None`` where its
    iteration count is imputed from ours."""
    if name in ("ieee13", "ieee123") or FULL_MODE:
        return BenchmarkADMM(
            get_dec(name),
            ADMMConfig(max_iter=500_000, record_history=False),
            local_mode="projection",
        ).solve()
    return None


def simulated_total_time(name, costs, n_cpus, iterations):
    dec = get_dec(name)
    g, d = aggregator_times_per_iter(name)
    cluster = SimulatedCluster(dec, costs, n_cpus, CPU_CLUSTER_COMM)
    return cluster.iteration_time(g, d) * iterations


def test_table5_report(benchmark):
    rows = []
    ratios = {}
    dofs = {}
    for name in INSTANCES:
        ours_costs, bench_costs = get_local_costs(name)
        sol = get_solution(name)
        assert sol.converged, f"{name}: solver-free run did not converge"
        t_ours = simulated_total_time(name, ours_costs, OUR_CPUS[name], sol.iterations)
        bench = benchmark_run(name)
        bench_iters = sol.iterations if bench is None else bench.iterations
        t_bench = simulated_total_time(
            name, bench_costs, BENCH_CPUS[name], bench_iters
        )
        dofs[name] = dof = get_lp(name).degrees_of_freedom
        p_ours = PAPER["table5"][name]["ours"]
        p_bench = PAPER["table5"][name]["benchmark"]
        rows.append(
            [name, "ours", OUR_CPUS[name], dof, f"{t_ours:.2f}", sol.iterations,
             f"{sol.primal_violation:.2e}", p_ours[1], p_ours[2]]
        )
        rows.append(
            [name, "benchmark", BENCH_CPUS[name], dof, f"{t_bench:.2f}",
             f"{bench_iters}{'~' if bench is None else ''}",
             "n/a" if bench is None else f"{bench.primal_violation:.2e}",
             p_bench[1], p_bench[2]]
        )
        ratios[name] = t_bench / t_ours
    text = format_table(
        ["instance", "algorithm", "#CPUs", "dof", "time [s]", "iterations",
         "primal violation", "paper time", "paper iters"],
        rows,
        title=(
            "Table V: time and iterations to convergence "
            "(~: iteration count imputed from ours; times are simulated-cluster)"
        ),
    )
    text += "\nspeedup ours vs benchmark: " + ", ".join(
        f"{k}: {v:.1f}x" for k, v in ratios.items()
    )
    if not any(dofs.values()):
        text += (
            "\nno instance has a degree of freedom (dof = columns - rows - fixed"
            " columns): each LP has one feasible point, so ADMM's iteration counts"
            " measure how fast it solves a square linear system"
        )
    report("table5_convergence", text)

    # Shape claim: ours wins on every instance despite far fewer CPUs.  The
    # paper's widening-with-size trend additionally needs the full-scale
    # 8500-bus instance (quick mode downsizes it, which compresses the
    # baseline's compute share relative to its 512-rank comm cost).
    assert all(r > 1.0 for r in ratios.values())
    if FULL_MODE:
        assert ratios["ieee8500"] > ratios["ieee13"]

    # pytest-benchmark target: one full solver-free iteration on IEEE13.
    from repro.core import SolverFreeADMM

    dec = get_dec("ieee13")
    solver = SolverFreeADMM(dec)
    x, z, lam = solver.initial_state()

    def one_iteration():
        xg = solver.global_update(z, lam, 100.0)
        bx = xg[solver.gcols]
        z2 = solver.local_update(bx, lam, 100.0)
        solver.dual_update(lam, bx, z2, 100.0)

    benchmark(one_iteration)
