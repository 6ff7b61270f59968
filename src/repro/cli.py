"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Network, LP and decomposition statistics for a feeder, and the
    width buckets of its batched local kernel.
``solve``
    Solve one rung of the fidelity ladder (``--method linearized``, the
    paper's solver-free ADMM, by default; ``qp`` or ``socp``) through
    :mod:`repro.methods` and print a solution report, optionally with
    convergence diagnostics and a check against the rung's HiGHS
    reference.
``methods``
    Run every rung of the fidelity ladder (linearized / qp / socp) on a
    feeder, reporting each method's accuracy gap against its HiGHS
    reference and the modeled GPU cost (see docs/METHODS.md).
``export``
    Convert a feeder between the named builtins, JSON, and CSV formats, or
    dump the assembled LP as ``.npz``.
``bench-iteration``
    Measure per-iteration update costs and show the modeled A100 times.
``serve-batch``
    Serve a JSON file of OPF scenarios through the batched scenario engine
    and print the serving metrics (see docs/SERVING.md).
``solve-stochastic``
    Solve the two-stage stochastic OPF — seeded scenario sampling, shared
    first-stage DER commitment, per-scenario recourse, expected-cost and
    CVaR objectives — through the stacked consensus ADMM (see
    docs/STOCHASTIC.md).
``schedule-der``
    Rolling-horizon DER/storage scheduling on the multi-period problem.
``trace-summary``
    Aggregate a trace captured with ``--trace`` into a per-phase table
    (see docs/OBSERVABILITY.md).
``backends``
    List the registered array-execution backends and their capabilities
    (see docs/BACKENDS.md).
``lint``
    Run the repo's AST-based invariant linter (backend discipline,
    determinism, precision, telemetry hygiene, exception discipline, and
    the whole-program rules; see docs/LINTING.md).  Exit codes: 0 clean,
    1 findings, 2 configuration error.

``solve`` and ``serve-batch`` accept ``--backend {numpy64,numpy32,cupy}``
and ``--precision {fp64,fp32,mixed}`` to pick the array-execution layer;
the default honours the ``REPRO_BACKEND`` environment variable.

``solve`` and ``serve-batch`` accept ``--trace out.json`` to capture a
Chrome-trace/Perfetto span timeline of the run (``.jsonl`` extension
selects the JSONL sink instead).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core import ADMMConfig, SolverFreeADMM
from repro.decomposition import decompose
from repro.formulation import build_centralized_lp
from repro.io import resolve_feeder as _resolve_feeder
from repro.io import save_lp_npz, save_network
from repro.io.csv_feeder import save_network_csv
from repro.network.analysis import solution_report
from repro.reference import solve_reference
from repro.telemetry import Tracer, format_trace_summary, load_trace_events
from repro.utils import ConvergenceError, format_table


def resolve_feeder(spec: str):
    """Resolve a feeder argument: builtin name, ``.json`` file, or CSV dir."""
    try:
        return _resolve_feeder(spec)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def admm_config(**fields) -> ADMMConfig:
    """An :class:`ADMMConfig` from command-line values; a value it rejects
    (non-positive or non-finite) exits with its one-line message."""
    try:
        return ADMMConfig(**fields)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def cmd_info(args) -> int:
    from collections import Counter

    from repro.core.batch import plan_widths
    from repro.qp.projection import bucket_width

    net = resolve_feeder(args.feeder)
    lp = build_centralized_lp(net)
    dec = decompose(lp)
    ms, ns = dec.size_stats()
    print(net.summary())
    print(f"radial: {net.is_radial()}   substation: {net.substation}")
    print(f"centralized LP: A is {lp.shape[0]} x {lp.shape[1]}, "
          f"degrees of freedom {lp.degrees_of_freedom} "
          f"(columns - rows - fixed columns)")
    counts = dec.partition_counts
    print(
        f"decomposition: S = {dec.n_components} "
        f"({counts.n_nodes} nodes + {counts.n_lines} lines - {counts.n_leaves} leaves)"
    )
    print(
        format_table(
            ["dim", "min", "max", "mean", "stdev", "sum"],
            [
                ["m_s", ms.minimum, ms.maximum, round(ms.mean, 2), round(ms.stdev, 2), ms.total],
                ["n_s", ns.minimum, ns.maximum, round(ns.mean, 2), round(ns.stdev, 2), ns.total],
            ],
            title="component subproblem sizes",
        )
    )
    # The batched local kernel's width buckets, against the power-of-two
    # padding the qp projector keeps.
    sizes = [c.n_vars for c in dec.components]
    rows = Counter(plan_widths(sizes))
    padded = sum(k * w * w for w, k in rows.items())
    pow2 = sum(bucket_width(n) ** 2 for n in sizes)
    useful = sum(n * n for n in sizes)
    buckets = " ".join(f"{w}x{rows[w]}" for w in sorted(rows))
    print(f"local kernel: {len(rows)} buckets {buckets}, {padded:,} padded elements "
          f"(pad efficiency {useful / padded:.2f}; power of two: {pow2:,}, "
          f"{useful / pow2:.2f})")
    return 0


def cmd_solve(args) -> int:
    """``repro solve``: one rung of the fidelity ladder through the
    :mod:`repro.methods` facade."""
    from repro.methods import (
        Method,
        build_method_problem,
        make_method_solver,
        reference_objective,
    )

    net = resolve_feeder(args.feeder)
    cfg = admm_config(
        rho=args.rho,
        eps_rel=args.eps_rel,
        max_iter=args.max_iter,
        relaxation=args.relaxation,
        record_history=args.diagnostics,
    )
    tracer = Tracer() if args.trace else None
    try:
        method = Method.parse(args.method)
        problem = build_method_problem(net, method)
        solver = make_method_solver(
            problem, cfg, tracer=tracer,
            backend=args.backend, precision=args.precision,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    policy = solver.backend.policy
    print(f"method: {method}   backend: {solver.backend.name} "
          f"(precision {policy.name}, compute {policy.compute})")
    result = solver.solve()
    if tracer is not None:
        tracer.save(args.trace)
        print(f"trace ({len(tracer)} spans) written to {args.trace}")
    print(result.summary())
    if method is Method.SOCP:
        conic = problem.conic
        slack = conic.cone_slack(result.x)
        report = {
            "objective": f"{problem.objective(result.x):.6f}",
            "worst cone violation": f"{conic.cone_violation(result.x):.3e}",
            "min cone slack": f"{float(slack.min()):.3e}",
            "tight cones (slack < 1e-6)": int((slack < 1e-6).sum()),
            "cones": len(conic.cones),
        }
        title = "conic relaxation report"
    else:
        report, title = solution_report(problem.lp, result.x), "solution report"
    print(format_table(["quantity", "value"], list(report.items()), title=title))
    if args.diagnostics:
        from repro.core.diagnostics import convergence_report

        diag = convergence_report(problem.dec, result)
        print(
            format_table(
                ["check", "value"], list(diag.items()), title="convergence diagnostics"
            )
        )
    if args.reference:
        ref = reference_objective(problem)
        obj = problem.objective(result.x)
        gap = abs(obj - ref) / max(abs(ref), 1e-12)
        print(f"reference objective {ref:.6f}  relative gap {gap:.3e}")
    if args.output:
        from repro.io import save_result

        save_result(result, args.output)
        print(f"result written to {args.output}")
    if args.require_convergence and not result.converged:
        raise ConvergenceError(
            f"solve did not converge within {result.iterations} iterations "
            f"(pres {result.pres:.3e}, dres {result.dres:.3e})"
        )
    return 0 if result.converged else 2


def cmd_methods(args) -> int:
    """``repro methods``: the accuracy/modeled-cost ladder on one feeder."""
    from repro.methods import method_report
    from repro.telemetry import MetricsRegistry

    net = resolve_feeder(args.feeder)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    try:
        reports = method_report(
            net,
            methods or None,
            backend=args.backend,
            precision=args.precision,
            metrics=MetricsRegistry(),
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    rows = [
        [
            r.method,
            "yes" if r.converged else "no",
            r.iterations,
            f"{r.objective:.6f}",
            f"{r.reference_objective:.6f}",
            f"{r.gap:.3e}",
            f"{r.gap_tol:g}",
            "yes" if r.within_tier else "NO",
            f"{r.modeled_iteration_s * 1e6:.1f}",
            f"{r.modeled_solve_s * 1e3:.2f}",
        ]
        for r in reports
    ]
    print(
        format_table(
            ["method", "conv", "iters", "objective", "reference",
             "gap", "tier", "ok", "us/iter", "modeled ms"],
            rows,
            title=f"fidelity ladder on {args.feeder!r} (gap vs HiGHS, A100 model)",
        )
    )
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(
                {"feeder": args.feeder, "methods": [r.to_dict() for r in reports]},
                fh,
                indent=1,
            )
        print(f"method report written to {args.output}")
    return 0 if all(r.within_tier for r in reports) else 2


def cmd_export(args) -> int:
    net = resolve_feeder(args.feeder)
    out = Path(args.output)
    if args.format == "json":
        save_network(net, out)
    elif args.format == "csv":
        save_network_csv(net, out)
    elif args.format == "npz":
        save_lp_npz(build_centralized_lp(net), out)
    print(f"{args.format} written to {out}")
    return 0


def cmd_bench_iteration(args) -> int:
    import numpy as np

    from repro.gpu import A100, iteration_times
    from repro.parallel import CPU_CLUSTER_COMM, SimulatedCluster

    net = resolve_feeder(args.feeder)
    lp = build_centralized_lp(net)
    dec = decompose(lp)
    solver = SolverFreeADMM(dec)
    res = solver.solve(max_iter=args.iterations)
    per = {k: v / res.iterations for k, v in res.timers.items()}
    rows = [[k, f"{v * 1e6:.1f}"] for k, v in per.items()]
    print(
        format_table(
            ["stage", "us/iteration"],
            rows,
            title=f"measured per-iteration cost ({res.iterations} iterations, this machine)",
        )
    )
    costs = solver.measure_local_costs(repeats=2)
    cluster = SimulatedCluster(dec, costs, args.cpus, CPU_CLUSTER_COMM)
    timing = cluster.local_update_timing()
    print(
        f"simulated {timing.n_ranks}-CPU local update: "
        f"{timing.total_s * 1e6:.1f} us (compute {timing.compute_s * 1e6:.1f}, "
        f"comm {timing.comm_s * 1e6:.1f})"
    )
    gpu = iteration_times(A100, dec)
    print(
        f"modeled A100 per-iteration: total {gpu.total_s * 1e6:.1f} us "
        f"(global {gpu.global_s * 1e6:.1f}, local {gpu.local_s * 1e6:.1f}, "
        f"dual {gpu.dual_s * 1e6:.1f})"
    )
    return 0


def generate_scenarios(
    feeder: str,
    count: int,
    seed: int,
    spread: float = 0.15,
    method: str = "linearized",
) -> list:
    """Random but reproducible load-perturbation scenarios for a feeder.

    Half the scenarios are fresh uniform draws; the other half perturb an
    earlier scenario slightly, so a serving run exercises both cold and
    warm-started solves.
    """
    import numpy as np

    from repro.serve import OPFRequest

    net = resolve_feeder(feeder)
    load_names = sorted(net.loads)
    rng = np.random.default_rng(seed)
    requests: list[OPFRequest] = []
    for i in range(count):
        if i >= count // 2 and requests:
            # a small perturbation of an already-generated scenario
            base = requests[int(rng.integers(0, count // 2))]
            mult = {
                name: m * float(1.0 + rng.uniform(-0.02, 0.02))
                for name, m in base.load_multipliers.items()
            }
            scale = base.load_scale
        else:
            mult = {
                name: float(1.0 + rng.uniform(-spread, spread))
                for name in load_names
            }
            scale = float(1.0 + rng.uniform(-spread, spread))
        requests.append(
            OPFRequest(
                request_id=f"scenario-{i:04d}",
                feeder=feeder,
                load_scale=scale,
                load_multipliers=mult,
                method=method,
            )
        )
    return requests


def cmd_serve_batch(args) -> int:
    from repro.serve import (
        ScenarioEngine,
        load_requests_json,
        save_requests_json,
    )

    if args.scenarios:
        try:
            requests = load_requests_json(args.scenarios)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            raise SystemExit(f"cannot read scenarios: {exc}") from None
    else:
        requests = generate_scenarios(
            args.feeder, args.generate, args.seed, method=args.method
        )
        print(f"generated {len(requests)} scenarios on feeder {args.feeder!r}")
    if args.save_scenarios:
        save_requests_json(requests, args.save_scenarios)
        print(f"scenario file written to {args.save_scenarios}")

    tracer = Tracer() if args.trace else None
    try:
        engine = ScenarioEngine(
            max_batch=args.max_batch,
            queue_size=args.queue_size,
            cache_capacity=args.cache_capacity,
            tracer=tracer,
            backend=args.backend,
            precision=args.precision,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    policy = engine.backend.policy
    print(f"backend: {engine.backend.name} (precision {policy.name}, "
          f"compute {policy.compute})")
    responses = engine.serve(requests)
    snap = engine.snapshot()
    if tracer is not None:
        tracer.save(args.trace)
        print(f"trace ({len(tracer)} spans) written to {args.trace}")

    if args.verbose:
        rows = [
            [
                r.request_id,
                r.status,
                r.iterations,
                "warm" if r.warm_started else "cold",
                "-" if r.objective is None else f"{r.objective:.5f}",
                r.certified,
                "-" if r.gap is None else f"{r.gap:.1e}",
            ]
            for r in responses
        ]
        print(
            format_table(
                ["request", "status", "iterations", "start", "objective",
                 "certified", "gap"],
                rows,
                title="responses",
            )
        )
    print(
        format_table(
            ["metric", "value"],
            [[k, v] for k, v in snap.items()],
            title="serving metrics",
        )
    )
    if args.output:
        payload = {
            "metrics": snap,
            "responses": [r.to_dict() for r in responses],
        }
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=1)
        print(f"serving report written to {args.output}")
    failed = sum(1 for r in responses if r.status in ("error", "rejected", "timeout"))
    if args.require_convergence:
        unconverged = sum(1 for r in responses if r.status != "converged")
        if unconverged:
            raise ConvergenceError(
                f"{unconverged} of {len(responses)} scenarios did not converge"
            )
    return 0 if failed == 0 else 2


def cmd_serve_fleet(args) -> int:
    from repro.fleet import (
        FleetConfig,
        FleetFrontend,
        generate_mixed_scenarios,
        run_closed_loop,
        run_open_loop,
    )
    from repro.resilience import FaultPlan, WorkerCrash
    from repro.serve import load_requests_json

    if args.scenarios:
        try:
            requests = load_requests_json(args.scenarios)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            raise SystemExit(f"cannot read scenarios: {exc}") from None
    else:
        feeders = [f.strip() for f in args.feeders.split(",") if f.strip()]
        requests = generate_mixed_scenarios(
            feeders, args.generate, args.seed, method=args.method
        )
        print(
            f"generated {len(requests)} scenarios over "
            f"{len(feeders)} feeders"
        )

    faults = []
    for spec in args.crash or []:
        worker, _, after = spec.partition(":")
        try:
            faults.append(WorkerCrash(worker=worker, after_served=int(after or 0)))
        except ValueError:
            raise SystemExit(
                f"malformed --crash {spec!r}: expected WORKER[:AFTER_SERVED]"
            ) from None
    plan = FaultPlan(seed=args.seed, faults=tuple(faults)) if faults else None

    tracer = Tracer() if args.trace else None
    config = FleetConfig(
        n_workers=args.workers,
        mode="process" if args.procs else "sim",
        max_batch=args.max_batch,
        queue_size=args.queue_size,
        cache_capacity=args.cache_capacity,
        warm_start=not args.no_warm_start,
        backend=args.backend,
        precision=args.precision,
    )
    print(
        f"fleet: {config.n_workers} {config.mode} workers, "
        f"max_batch={config.max_batch}"
        + (f", chaos plan with {len(faults)} fault(s)" if faults else "")
    )
    report = None
    sup_snap = None
    with FleetFrontend(config, tracer=tracer, fault_plan=plan) as fleet:
        if args.supervise:
            from repro.fleet import FleetSupervisor, SupervisorConfig

            supervisor = FleetSupervisor(fleet, SupervisorConfig(
                restart_base_delay_s=args.restart_backoff,
                max_restarts=args.max_restarts,
                seed=args.seed,
            ))
            responses = supervisor.serve(requests)
            supervisor.stabilize()
            sup_snap = supervisor.snapshot()
        elif args.rate is not None:
            report = run_open_loop(fleet, requests, args.rate, seed=args.seed)
            responses = fleet.responses
        elif args.concurrency is not None:
            report = run_closed_loop(fleet, requests, args.concurrency)
            responses = fleet.responses
        else:
            responses = fleet.serve(requests)
    # After close: every live worker's engine snapshot has arrived with its
    # DONE, so both modes report the same per-worker schema.
    snap = fleet.snapshot()
    if tracer is not None:
        tracer.save(args.trace)
        print(f"trace ({len(tracer)} spans) written to {args.trace}")

    if args.verbose:
        rows = [
            [r.request_id, r.status, r.iterations,
             "-" if r.objective is None else f"{r.objective:.5f}"]
            for r in responses
        ]
        print(format_table(
            ["request", "status", "iterations", "objective"], rows,
            title="responses",
        ))
    fleet_rows = [[k, v] for k, v in snap.items() if k != "workers"]
    print(format_table(["metric", "value"], fleet_rows, title="fleet metrics"))
    worker_rows = [
        [wid, ws["worker.served"], "yes" if ws["worker.alive"] else "no"]
        for wid, ws in snap["workers"].items()
    ]
    print(format_table(["worker", "served", "alive"], worker_rows, title="workers"))
    if sup_snap is not None:
        sup_rows = [
            ["capacity", f"{sup_snap['capacity']['alive']}"
             f"/{sup_snap['capacity']['target']} alive"],
            ["quarantined", ", ".join(sup_snap["quarantined"]) or "-"],
            ["restarts", sum(h["restarts"] for h in sup_snap["health"].values())],
            ["mttr_mean_s", f"{snap.get('fleet.restart.mttr_s_mean', 0.0):.3f}"],
        ]
        print(format_table(["metric", "value"], sup_rows, title="supervisor"))
    if report is not None:
        print(format_table(
            ["metric", "value"],
            [[k, v] for k, v in report.to_dict().items() if k != "fleet"],
            title=f"{report.mode}-loop load test",
        ))

    if args.output:
        payload = {
            "fleet": snap,
            "responses": [r.to_dict() for r in responses],
        }
        if report is not None:
            payload["load_test"] = report.to_dict()
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=1)
        print(f"fleet report written to {args.output}")

    failed = sum(1 for r in responses if r.status in ("error", "rejected", "timeout"))
    if args.require_convergence:
        unconverged = sum(1 for r in responses if r.status != "converged")
        if unconverged:
            raise ConvergenceError(
                f"{unconverged} of {len(responses)} scenarios did not converge"
            )
    return 0 if failed == 0 else 2


def cmd_fleet_chaos(args) -> int:
    from repro.fleet import SupervisorConfig, run_chaos_soak

    tracer = Tracer() if args.trace else None
    feeders = tuple(f.strip() for f in args.feeders.split(",") if f.strip())
    mode = "process" if args.procs else "sim"
    print(
        f"chaos soak: {args.workers} {mode} workers, {args.requests} requests, "
        f"{args.kills} kill draws, seed {args.seed}"
    )
    report = run_chaos_soak(
        n_workers=args.workers,
        n_requests=args.requests,
        kills=args.kills,
        seed=args.seed,
        mode=mode,
        feeders=feeders,
        max_batch=args.max_batch,
        supervisor=SupervisorConfig(
            heartbeat_interval_s=1.0 if mode == "sim" else 0.2,
            miss_threshold=2,
            restart_base_delay_s=0.05,
            max_restarts=args.max_restarts,
            seed=args.seed,
        ),
        tracer=tracer,
        require_ok=False,
    )
    if tracer is not None:
        tracer.save(args.trace)
        print(f"trace ({len(tracer)} spans) written to {args.trace}")
    d = report.as_dict()
    print(format_table(
        ["invariant / metric", "value"],
        [[k, d[k]] for k in (
            "deaths", "restarts", "quarantined", "exactly_once",
            "bit_identical", "capacity_recovered", "mttr_mean_s",
        )],
        title="chaos soak report",
    ))
    if report.mismatches:
        for line in report.mismatches:
            print(f"  mismatch: {line}")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(d, fh, indent=1)
        print(f"soak report written to {args.output}")
    if not report.ok:
        print("chaos soak FAILED: invariants violated")
        return 2
    print("chaos soak ok: exactly-once, bit-identical, capacity recovered")
    return 0


def cmd_solve_stochastic(args) -> int:
    from repro.stochastic import (
        ScenarioSampler,
        UncertaintyModel,
        solve_two_stage,
        value_of_stochastic_solution,
    )
    from repro.telemetry import NULL_TRACER

    net = resolve_feeder(args.feeder)
    sampler = ScenarioSampler.from_network(
        net,
        model=UncertaintyModel(
            load_sigma=args.load_sigma, pv_sigma=args.pv_sigma
        ),
        seed=args.seed,
        antithetic=not args.no_antithetic,
    )
    scenarios = sampler.sample(args.scenarios)
    print(
        f"{scenarios.n_scenarios} scenarios on feeder {args.feeder!r} "
        f"(seed {args.seed}, load sigma {args.load_sigma}, pv sigma "
        f"{args.pv_sigma}, antithetic {not args.no_antithetic})"
    )
    cfg = admm_config(rho=args.rho, eps_rel=args.eps_rel, max_iter=args.max_iter)
    tracer = Tracer() if args.trace else NULL_TRACER
    objectives = (
        ["expected", "cvar"] if args.objective == "both" else [args.objective]
    )
    solutions = {}
    rows = []
    for objective in objectives:
        with tracer.span(
            "stochastic.solve",
            cat="stochastic",
            objective=objective,
            n_scenarios=scenarios.n_scenarios,
        ):
            try:
                sol = solve_two_stage(
                    net,
                    scenarios,
                    alpha=args.alpha,
                    objective=objective,
                    config=cfg,
                    backend=args.backend,
                    precision=args.precision,
                    tracer=tracer,
                )
            except ValueError as exc:
                raise SystemExit(str(exc)) from None
        solutions[objective] = sol
        rows.append(
            [
                objective,
                "yes" if sol.converged else "no",
                sol.iterations,
                f"{sol.objective:.6f}",
                f"{sol.expected_cost:.6f}",
                f"{sol.cvar_cost:.6f}",
            ]
        )
        if args.reference:
            ref = solve_reference(sol.problem)
            gap = ref.compare_objective(sol.objective)
            print(
                f"{objective}: reference objective {ref.objective:.6f}  "
                f"relative gap {gap:.3e}"
            )
    print(
        format_table(
            ["objective", "converged", "iterations", "value", "E[cost]",
             f"CVaR[{args.alpha}]"],
            rows,
            title="two-stage solutions",
        )
    )
    last = solutions[objectives[-1]]
    print(
        format_table(
            ["generator", "setpoint (pu per phase)"],
            [
                [name, " ".join(f"{v:.5f}" for v in vals)]
                for name, vals in sorted(last.first_stage.items())
            ],
            title="first-stage commitment",
        )
    )
    vss_report = None
    if args.vss:
        vss_report = value_of_stochastic_solution(net, scenarios)
        print(
            f"VSS: two-stage eval {vss_report.stochastic_eval:.6f}  "
            f"mean-scenario eval {vss_report.deterministic_eval:.6f}  "
            f"vss {vss_report.vss:.6f}"
        )
    if tracer is not NULL_TRACER:
        tracer.save(args.trace)
        print(f"trace ({len(tracer)} spans) written to {args.trace}")
    if args.output:
        payload = {
            "feeder": args.feeder,
            "n_scenarios": scenarios.n_scenarios,
            "seed": args.seed,
            "alpha": args.alpha,
            "solutions": {
                obj: {
                    "converged": sol.converged,
                    "iterations": sol.iterations,
                    "objective": sol.objective,
                    "expected_cost": sol.expected_cost,
                    "cvar_cost": sol.cvar_cost,
                    "primal_violation": sol.result.primal_violation,
                    "first_stage": {
                        k: [float(v) for v in vals]
                        for k, vals in sol.first_stage.items()
                    },
                }
                for obj, sol in solutions.items()
            },
        }
        if vss_report is not None:
            payload["vss"] = vss_report.vss
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=1)
        print(f"stochastic report written to {args.output}")
    unconverged = [o for o, s in solutions.items() if not s.converged]
    if args.require_convergence and unconverged:
        raise ConvergenceError(
            f"objectives {unconverged} did not converge within "
            f"{args.max_iter} iterations"
        )
    return 0 if not unconverged else 2


def cmd_schedule_der(args) -> int:
    from repro.multiperiod import Storage, rolling_horizon
    from repro.utils.exceptions import FormulationError

    net = resolve_feeder(args.feeder)
    periods = args.periods
    # A stylized day: load ramps to an evening peak while the price
    # follows it — the spread the storage arbitrages.
    base = [0.7, 0.8, 1.0, 1.2, 1.1, 0.9]
    load_profile = [base[t % len(base)] for t in range(periods)]
    price_profile = [0.5 + 0.7 * (x - 0.7) / 0.5 for x in load_profile]
    storages = [
        Storage(
            name="bat675",
            bus="675",
            p_ch_max=args.storage_power,
            p_dis_max=args.storage_power,
            energy_max=args.storage_energy,
            soc0=args.storage_energy / 2,
        )
    ]
    cfg = admm_config(rho=args.rho, eps_rel=args.eps_rel, max_iter=args.max_iter)
    try:
        horizon = rolling_horizon(
            net,
            load_profile,
            price_profile,
            storages,
            window=args.horizon,
            solver=args.solver,
            config=cfg,
            backend=args.backend,
            precision=args.precision,
        )
    except (FormulationError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    rows = [
        [
            s.period,
            f"{load_profile[s.period]:.2f}",
            f"{price_profile[s.period]:.2f}",
            f"{s.substation_p:.4f}",
            f"{s.storage_p['bat675']:+.4f}",
            f"{s.soc_after['bat675']:.4f}",
            s.iterations,
            "yes" if s.converged else "no",
        ]
        for s in horizon.steps
    ]
    print(
        format_table(
            ["t", "load", "price", "sub p", "storage p", "soc", "iters", "conv"],
            rows,
            title=f"rolling horizon (window {args.horizon})",
        )
    )
    print(f"committed cost: {horizon.committed_cost:.6f}")
    if args.output:
        payload = {
            "feeder": args.feeder,
            "periods": periods,
            "window": args.horizon,
            "committed_cost": horizon.committed_cost,
            "soc": {
                st.name: [float(v) for v in horizon.soc_trajectory(st.name)]
                for st in storages
            },
        }
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=1)
        print(f"schedule written to {args.output}")
    unconverged = sum(1 for s in horizon.steps if not s.converged)
    if args.require_convergence and unconverged:
        raise ConvergenceError(
            f"{unconverged} of {len(horizon.steps)} window solves did not converge"
        )
    return 0 if unconverged == 0 else 2


def cmd_backends(args) -> int:
    import os

    from repro.backend import (
        BACKEND_ENV_VAR,
        available_backends,
        backend_names,
        default_backend,
        get_backend,
    )

    avail = set(available_backends())
    default = default_backend().name
    rows = []
    for name in backend_names():
        if name not in avail:
            rows.append([name, "no", "-", "-", "-", "-"])
            continue
        caps = get_backend(name).capabilities()
        rows.append(
            [
                name + (" *" if name == default else ""),
                "yes",
                caps["precision"],
                caps["compute_dtype"],
                "device" if caps["device"] else "host",
                "yes" if caps["refinement"] else "no",
            ]
        )
    print(
        format_table(
            ["backend", "available", "precision", "compute", "memory", "refinement"],
            rows,
            title="registered array-execution backends (* = default)",
        )
    )
    env = os.environ.get(BACKEND_ENV_VAR)
    if env:
        print(f"{BACKEND_ENV_VAR}={env} (set)")
    else:
        print(f"{BACKEND_ENV_VAR} unset — default is numpy64")
    return 0


def cmd_trace_summary(args) -> int:
    try:
        events = load_trace_events(args.trace)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read trace: {exc}") from None
    if not events:
        print("trace contains no spans")
        return 2
    print(format_trace_summary(events))
    return 0


def cmd_lint(args) -> int:
    import time

    from repro.lint import (
        LintConfigError,
        LintEngine,
        format_github,
        format_json,
        format_stats,
        format_text,
        get_rules,
    )

    try:
        rules = get_rules(args.rules.split(",") if args.rules else None)
    except KeyError as exc:
        print(f"lint: {exc.args[0]}", file=sys.stderr)
        return 2

    try:
        t0 = time.perf_counter()
        result = LintEngine(rules).run(args.paths)
        t1 = time.perf_counter()
    except LintConfigError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        tracer = Tracer()
        tracer.add_complete(
            "lint.run",
            t0,
            t1,
            cat="lint",
            args={
                "lint_findings": len(result.findings),
                "lint_files": result.files,
            },
        )
        tracer.save(args.trace)

    if args.stats:
        print(format_stats(result))
    elif args.format == "json":
        print(format_json(result))
    elif args.format == "github":
        print(format_github(result))
    else:
        print(format_text(result))
    return 0 if result.clean else 1


def _add_backend_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--backend",
        choices=["numpy64", "numpy32", "cupy"],
        help="array-execution backend (default: $REPRO_BACKEND or numpy64)",
    )
    p.add_argument(
        "--precision",
        choices=["fp64", "fp32", "mixed"],
        help="precision policy overlay (default: the backend's own policy)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Solver-free distributed multi-phase OPF (IPPS 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="feeder / LP / decomposition statistics")
    p.add_argument("--feeder", default="ieee13")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("solve", help="run the distributed OPF")
    p.add_argument("--feeder", default="ieee13")
    p.add_argument(
        "--method",
        choices=["linearized", "qp", "socp"],
        default="linearized",
        help="rung of the fidelity ladder to solve (docs/METHODS.md)",
    )
    _add_backend_flags(p)
    p.add_argument("--rho", type=float, default=100.0)
    p.add_argument("--eps-rel", type=float, default=1e-3)
    p.add_argument("--max-iter", type=int, default=100_000)
    p.add_argument("--relaxation", type=float, default=1.0)
    p.add_argument("--reference", action="store_true", help="validate against HiGHS")
    p.add_argument(
        "--diagnostics",
        action="store_true",
        help="print the convergence_report table (records iterate history)",
    )
    p.add_argument("--output", help="write the result summary as JSON")
    p.add_argument(
        "--trace",
        metavar="PATH",
        help="capture a span trace (Chrome JSON; .jsonl extension for JSONL)",
    )
    p.add_argument(
        "--require-convergence",
        action="store_true",
        help="exit with an error (status 3) if the solve does not converge",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "methods",
        help="cross-method validation: accuracy gap vs HiGHS and modeled "
        "GPU cost for every ladder rung on one feeder",
    )
    p.add_argument("--feeder", default="ieee13")
    p.add_argument(
        "--methods",
        default="linearized,qp,socp",
        help="comma-separated rungs to run (default: all)",
    )
    _add_backend_flags(p)
    p.add_argument("--output", help="write the method report as JSON")
    p.set_defaults(func=cmd_methods)

    p = sub.add_parser("export", help="convert a feeder / dump the LP")
    p.add_argument("--feeder", default="ieee13")
    p.add_argument("--format", choices=["json", "csv", "npz"], required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("bench-iteration", help="per-iteration cost snapshot")
    p.add_argument("--feeder", default="ieee13")
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--cpus", type=int, default=16)
    p.set_defaults(func=cmd_bench_iteration)

    p = sub.add_parser("serve-batch", help="serve a file of OPF scenarios")
    p.add_argument("--scenarios", help="scenario JSON file (see docs/SERVING.md)")
    p.add_argument("--feeder", default="ieee13", help="feeder for --generate")
    p.add_argument(
        "--generate",
        type=int,
        default=32,
        metavar="N",
        help="generate N random scenarios when no --scenarios file is given",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for --generate")
    p.add_argument(
        "--method",
        choices=["linearized", "qp", "socp"],
        default="linearized",
        help="OPF method for generated scenarios (docs/METHODS.md)",
    )
    p.add_argument("--save-scenarios", help="also write the scenario file here")
    p.add_argument("--max-batch", type=int, default=16)
    p.add_argument("--queue-size", type=int, default=256)
    p.add_argument("--cache-capacity", type=int, default=64)
    _add_backend_flags(p)
    p.add_argument("--verbose", action="store_true", help="per-response table")
    p.add_argument("--output", help="write metrics + responses as JSON")
    p.add_argument(
        "--trace",
        metavar="PATH",
        help="capture a span trace (Chrome JSON; .jsonl extension for JSONL)",
    )
    p.add_argument(
        "--require-convergence",
        action="store_true",
        help="exit with an error (status 3) if any scenario does not converge",
    )
    p.set_defaults(func=cmd_serve_batch)

    p = sub.add_parser(
        "serve-fleet", help="serve scenarios on a sharded multi-worker fleet"
    )
    p.add_argument("--workers", type=int, default=2, help="fleet size")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--sim", action="store_true",
        help="in-process deterministic workers (default)",
    )
    mode.add_argument(
        "--procs", action="store_true",
        help="real multiprocessing workers (one engine per process)",
    )
    p.add_argument("--scenarios", help="scenario JSON file (see docs/SERVING.md)")
    p.add_argument(
        "--feeders",
        default="ieee13,synthetic:20:0,synthetic:20:2,synthetic:20:9",
        help="comma-separated feeder references for --generate "
        "(builtins or synthetic:<n_buses>[:<seed>])",
    )
    p.add_argument(
        "--generate", type=int, default=32, metavar="N",
        help="generate N mixed-topology scenarios when no --scenarios file",
    )
    p.add_argument("--seed", type=int, default=0, help="scenario / chaos seed")
    p.add_argument(
        "--method",
        choices=["linearized", "qp", "socp"],
        default="linearized",
        help="OPF method for generated scenarios (docs/METHODS.md)",
    )
    p.add_argument(
        "--crash", action="append", metavar="WORKER[:AFTER]",
        help="chaos: fail-stop WORKER after serving AFTER requests "
        "(repeatable, e.g. --crash w0:4)",
    )
    p.add_argument(
        "--rate", type=float, metavar="RPS",
        help="open-loop load test at seeded Poisson RPS arrivals",
    )
    p.add_argument(
        "--concurrency", type=int, metavar="C",
        help="closed-loop load test with C virtual clients",
    )
    p.add_argument("--max-batch", type=int, default=16)
    p.add_argument("--queue-size", type=int, default=256)
    p.add_argument("--cache-capacity", type=int, default=64)
    p.add_argument(
        "--no-warm-start", action="store_true",
        help="cold-start every solve (history-independent responses)",
    )
    _add_backend_flags(p)
    p.add_argument("--verbose", action="store_true", help="per-response table")
    p.add_argument("--output", help="write fleet metrics + responses as JSON")
    p.add_argument(
        "--trace",
        metavar="PATH",
        help="capture a span trace (Chrome JSON; .jsonl extension for JSONL)",
    )
    p.add_argument(
        "--require-convergence",
        action="store_true",
        help="exit with an error (status 3) if any scenario does not converge",
    )
    p.add_argument(
        "--supervise", action="store_true",
        help="run a self-healing supervisor: heartbeat health checks, "
        "auto-restart with backoff, cache re-warming, crash-loop quarantine",
    )
    p.add_argument(
        "--restart-backoff", type=float, default=0.05, metavar="S",
        help="base restart backoff in seconds (exponential, seeded jitter)",
    )
    p.add_argument(
        "--max-restarts", type=int, default=3, metavar="N",
        help="per-worker restart budget before quarantine",
    )
    p.set_defaults(func=cmd_serve_fleet)

    p = sub.add_parser(
        "fleet-chaos",
        help="seeded kill/restart storm over a supervised fleet "
        "(exactly-once + bit-identical + capacity-recovered gate)",
    )
    p.add_argument("--workers", type=int, default=4, help="fleet size")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--sim", action="store_true",
        help="in-process deterministic workers (default)",
    )
    mode.add_argument(
        "--procs", action="store_true",
        help="real multiprocessing workers",
    )
    p.add_argument(
        "--requests", type=int, default=24, metavar="N",
        help="mixed-topology scenario count",
    )
    p.add_argument("--kills", type=int, default=3, help="storm kill draws")
    p.add_argument("--seed", type=int, default=5, help="storm + workload seed")
    p.add_argument(
        "--feeders",
        default="ieee13,synthetic:20:0,synthetic:20:2,synthetic:20:9",
        help="comma-separated feeder references",
    )
    p.add_argument("--max-batch", type=int, default=2)
    p.add_argument(
        "--max-restarts", type=int, default=3, metavar="N",
        help="per-worker restart budget before quarantine",
    )
    p.add_argument("--output", help="write the soak report as JSON")
    p.add_argument(
        "--trace",
        metavar="PATH",
        help="capture a span trace (Chrome JSON; .jsonl extension for JSONL)",
    )
    p.set_defaults(func=cmd_fleet_chaos)

    p = sub.add_parser(
        "solve-stochastic",
        help="solve the two-stage stochastic OPF (CVaR / expected value)",
    )
    p.add_argument("--feeder", default="ieee13-der")
    p.add_argument("--scenarios", type=int, default=16, metavar="K")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--load-sigma", type=float, default=0.10)
    p.add_argument("--pv-sigma", type=float, default=0.15)
    p.add_argument("--alpha", type=float, default=0.95, help="CVaR level")
    p.add_argument(
        "--no-antithetic",
        action="store_true",
        help="disable antithetic scenario pairing",
    )
    p.add_argument(
        "--objective",
        choices=["expected", "cvar", "both"],
        default="both",
        help="risk objective(s) to solve",
    )
    _add_backend_flags(p)
    p.add_argument(
        "--rho",
        type=float,
        default=10.0,
        help="penalty; stochastic instances favour rho ~ 10 (docs/STOCHASTIC.md)",
    )
    p.add_argument("--eps-rel", type=float, default=1e-3)
    p.add_argument("--max-iter", type=int, default=60_000)
    p.add_argument("--reference", action="store_true", help="validate against HiGHS")
    p.add_argument(
        "--vss",
        action="store_true",
        help="report the value of the stochastic solution (exact reference solves)",
    )
    p.add_argument("--output", help="write the report as JSON")
    p.add_argument(
        "--trace",
        metavar="PATH",
        help="capture a span trace (Chrome JSON; .jsonl extension for JSONL)",
    )
    p.add_argument(
        "--require-convergence",
        action="store_true",
        help="exit with an error (status 3) if a solve does not converge",
    )
    p.set_defaults(func=cmd_solve_stochastic)

    p = sub.add_parser(
        "schedule-der", help="rolling-horizon DER/storage schedule"
    )
    p.add_argument("--feeder", default="ieee13")
    p.add_argument("--periods", type=int, default=6)
    p.add_argument(
        "--horizon", type=int, default=4, metavar="W", help="lookahead window"
    )
    p.add_argument("--solver", choices=["admm", "reference"], default="admm")
    p.add_argument("--storage-power", type=float, default=0.05)
    p.add_argument("--storage-energy", type=float, default=0.2)
    _add_backend_flags(p)
    p.add_argument("--rho", type=float, default=10.0)
    p.add_argument("--eps-rel", type=float, default=1e-3)
    p.add_argument("--max-iter", type=int, default=40_000)
    p.add_argument("--output", help="write the schedule as JSON")
    p.add_argument(
        "--require-convergence",
        action="store_true",
        help="exit with an error (status 3) if a window solve does not converge",
    )
    p.set_defaults(func=cmd_schedule_der)

    p = sub.add_parser(
        "trace-summary", help="per-phase breakdown of a captured trace"
    )
    p.add_argument("trace", help="trace file written by --trace")
    p.set_defaults(func=cmd_trace_summary)

    p = sub.add_parser(
        "backends", help="list the array-execution backends on this machine"
    )
    p.set_defaults(func=cmd_backends)

    p = sub.add_parser(
        "lint", help="run the repo's AST-based invariant linter"
    )
    p.add_argument(
        "paths", nargs="*", default=["src"], help="files/directories to lint"
    )
    p.add_argument(
        "--rules",
        help="comma-separated rule ids to run (default: all, e.g. R001,R002)",
    )
    p.add_argument(
        "--format",
        choices=["text", "json", "github"],
        default="text",
        help="output format (github emits workflow annotations)",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule / per-package counts, graph shape and timings",
    )
    p.add_argument(
        "--trace",
        metavar="PATH",
        help="record a lint.run span (trace-summary then reports lint status)",
    )
    p.set_defaults(func=cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
