"""Workloads of the layered benchmark: seeded inputs, runners and checks.

Two kinds of workload:

* ``solve-*`` - cold solves through the ``repro.methods`` facade
  (``build_method_problem`` then ``make_method_solver`` then ``solve``),
  one fresh model per solve, repeated for the measurement window.
* ``serve-*`` - 32 closed-loop clients, 4 per feeder, against a two-worker
  sim-mode ``FleetFrontend``: each client sends its next ``OPFRequest`` as
  soon as the previous answer comes back, because a caller of the serving
  path waits for its answer.  Sim mode runs the same routing and engines
  in this process, so a run's batches depend on its seed alone.  Process
  workers sharing a CPU batch by OS timing instead, and identical runs
  then differed by up to 10% in throughput.

A runner records raw ``perf_counter`` intervals; :func:`run_workload`
converts them to reference seconds with the calibration sidecar's
:class:`speed.SpeedMap`.  Untraced runs report the end-to-end metrics.
Traced runs install :class:`probes.LayerProbes` around the measurement
window and report the per-layer metrics instead.
"""

from __future__ import annotations

import resource
import statistics
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from probes import LayerProbes
from repro.fleet import MODE_SIM, FleetConfig, FleetFrontend
from repro.io import resolve_feeder
from repro.methods import (
    METHOD_SPECS,
    Method,
    build_method_problem,
    make_method_solver,
    reference_objective,
)
from repro.reference import solve_reference
from repro.serve import OPFRequest, ScenarioEngine, SolveOptions, TopologyPlan
from speed import Calibrator, SpeedMap, pin_to_one_cpu, restore_affinity

_clock = time.perf_counter

#: The serving feeders of bench_serving_scale.py: consistent-hash routing
#: splits their topology keys 4/4 over two workers.
SERVE_FEEDERS = (
    "ieee13",
    "synthetic:20:0",
    "synthetic:20:1",
    "synthetic:20:4",
    "synthetic:20:8",
    "synthetic:20:11",
    "synthetic:20:12",
    "synthetic:20:17",
)
SERVE_WORKERS = 2
SERVE_MAX_BATCH = 8
#: Each fixed-budget solve of the trace-overhead probe lasts about this long.
OVERHEAD_TRIAL_S = 0.1
#: Iteration budget of the serving trace-overhead batch (about 0.1 s).
SERVE_OVERHEAD_ITERATIONS = 200
#: Gap tolerance of every smoke run, whose loose eps_rel stops short.
SMOKE_GAP_TOL = 5e-2


@dataclass(frozen=True)
class Sizes:
    """How much work one run does besides its measurement window."""

    setups: int = 7  # fresh set-ups whose median is setup_s (at least)
    setup_seconds: float = 0.5  # solve workloads set up for at least this long
    warmup_iterations: int = 500  # untimed iterations before the window
    overhead_trials: int = 5  # probed/unprobed pairs for trace.overhead_frac
    feeders: int = len(SERVE_FEEDERS)
    clients: int = 32
    prime: int = 4  # untimed warm-start requests per feeder before the loop
    gap_sample: int = 24  # served answers checked against HiGHS


FULL = Sizes()
SMOKE = Sizes(setups=2, setup_seconds=0.0, warmup_iterations=50, overhead_trials=1,
              feeders=2, clients=4, prime=2, gap_sample=4)


@dataclass(frozen=True)
class SolveWorkload:
    name: str
    feeder: str
    method: str
    eps_rel: float
    max_iter: int
    gap_tol: float  # largest admissible relative gap to HiGHS
    smoke_eps: float


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    warm_start: bool
    spread: float  # loads scale by U[1 - spread, 1 + spread]
    rate: float  # requests per --seconds at reference speed: sizes the run
    gap_tol: float


#: The reason for each workload is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        SolveWorkload("solve-ieee13", "ieee13", "linearized", 1e-3, 20_000, 5e-3, 1e-2),
        # The spec's 20,000-iteration budget stops short on ieee123.
        SolveWorkload("solve-ieee123", "ieee123", "linearized", 1e-3, 200_000, 5e-2, 1e-2),
        SolveWorkload("solve-qp-ieee13", "ieee13", "qp", 1e-4, 100_000, 1e-3, 1e-2),
        SolveWorkload("solve-socp-ieee13", "ieee13", "socp", 2e-5, 300_000, 5e-4, 1e-3),
        ServeWorkload("serve-warm", True, 0.02, 45.0, 5e-2),
        ServeWorkload("serve-cold", False, 0.15, 7.0, 5e-2),
    )
}


@dataclass
class RunResult:
    """One run: the contract fields plus context for the run-set files."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    info: dict = field(default_factory=dict)


@dataclass
class RawRun:
    """What a runner measured, as raw ``perf_counter`` intervals."""

    correct: bool
    attempted: int
    failed: int
    info: dict
    setups: list[tuple[float, float]]  # each fresh set-up
    requests: list[tuple[float, float]]  # sent -> answered, each success
    busy: list[tuple[float, float]]  # what throughput is counted over
    rss_mb: float
    layers: dict[str, float] | None = None  # traced: raw per-layer metrics


# -- seeded inputs ---------------------------------------------------------
def perturbed_feeders(base, seed: int):
    """Endless networks for the solve workloads.

    Seed 0 yields the unperturbed feeder every time.  Seed ``s > 0`` draws,
    for every network, one U[0.99, 1.01] factor per load (sorted by name)
    from ``default_rng(s)``, so each solve of a run gets its own loads.
    Wider draws move the iteration counts: at +-5% the qp rung needs 5,147
    or 5,430 iterations and ieee123 anywhere from 77,767 to 96,624.
    """
    rng = np.random.default_rng(seed)
    names = sorted(base.loads)
    while True:
        if seed == 0:
            yield base
            continue
        net = base.copy()
        for name in names:
            scale = rng.uniform(0.99, 1.01)
            load = net.loads[name]
            load.p_ref = load.p_ref * scale
            load.q_ref = load.q_ref * scale
        yield net


class RequestStream:
    """Seeded requests for the serve workloads: every load of a request is
    scaled by its own U[1 - spread, 1 + spread] factor from
    ``default_rng(seed)``, drawn in the order the clients ask."""

    def __init__(self, seed: int, feeders, spread: float):
        self.rng = np.random.default_rng(seed)
        self.spread = spread
        self.loads = {f: sorted(resolve_feeder(f).loads) for f in feeders}
        self.count = 0

    def next(self, feeder: str) -> OPFRequest:
        lo, hi = 1.0 - self.spread, 1.0 + self.spread
        request = OPFRequest(
            request_id=f"req-{self.count:06d}",
            feeder=feeder,
            load_multipliers={
                name: float(self.rng.uniform(lo, hi)) for name in self.loads[feeder]
            },
        )
        self.count += 1
        return request


# -- helpers -----------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident MiB of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def relative_gap(objective: float, reference: float) -> float:
    return abs(objective - reference) / max(abs(reference), 1e-12)


def probe_overhead(run_once, trials: int) -> float:
    """Probed over unprobed time of ``run_once``, minus one.

    Alternates unprobed and probed calls, after one untimed call, so
    drift hits both sides alike.
    """
    run_once()
    plain, probed = [], []
    for _ in range(trials):
        start = _clock()
        run_once()
        plain.append(_clock() - start)
        with LayerProbes():
            start = _clock()
            run_once()
            probed.append(_clock() - start)
    return statistics.median(probed) / statistics.median(plain) - 1.0


def layer_metrics(p: LayerProbes, *, setup_model_s: float, setup_solver_s: float,
                  stages: dict[str, float], requests: int, request_iterations: int,
                  wall_s: float, warm_hit_rate: float, factorization_reuse: float,
                  wait_frac: float, affinity_miss: int,
                  overhead_frac: float) -> dict[str, float]:
    """The per-layer metrics of one traced run, in raw time.

    ``stages`` holds seconds per answered request of the request pipeline
    (build, stack, solve, other); loop and batch figures come from the
    probes, per iteration and per kernel call.
    """
    t, n, work = p.t, p.n, p.work
    iterations = max(n["loop.iterations"], 1)
    hooks = t["loop.global"] + t["loop.local"] + t["loop.dual"] + t["loop.residual"]
    kernel_calls = max(n["batch.solve"], 1)
    padded = work["padded_flops"]
    step_s = t["serve.step"]
    return {
        "setup.model_ms": 1e3 * setup_model_s,
        "setup.solver_ms": 1e3 * setup_solver_s,
        "stage.build_ms": 1e3 * stages["build"],
        "stage.stack_ms": 1e3 * stages["stack"],
        "stage.solve_ms": 1e3 * stages["solve"],
        "stage.other_ms": 1e3 * stages["other"],
        "loop.iterations": n["loop.iterations"] / max(n["loop.run"], 1),
        "loop.iter_us": 1e6 * t["loop.run"] / iterations,
        "loop.global_us": 1e6 * t["loop.global"] / iterations,
        "loop.local_us": 1e6 * t["loop.local"] / iterations,
        "loop.dual_us": 1e6 * t["loop.dual"] / iterations,
        "loop.residual_us": 1e6 * t["loop.residual"] / iterations,
        "loop.overhead_us": 1e6 * (t["loop.run"] - hooks) / iterations,
        "loop.local_us_per_component":
            1e6 * t["loop.local"] / max(n["loop.component_iterations"], 1),
        "batch.useful_flops": work["useful_flops"] / kernel_calls,
        "batch.padded_flops": padded / kernel_calls,
        "batch.pad_efficiency": work["useful_flops"] / padded if padded else 0.0,
        "batch.bytes": work["bytes"] / kernel_calls,
        "batch.flops_per_byte": padded / work["bytes"] if padded else 0.0,
        "batch.gflops": padded / t["batch.solve"] / 1e9 if padded else 0.0,
        "serve.batch_size":
            n["serve.responses"] / n["serve.batches"] if n["serve.batches"] else 1.0,
        "serve.iterations_per_request": request_iterations / max(requests, 1),
        "serve.wasted_iter_frac":
            1.0 - request_iterations / max(n["loop.scenario_iterations"], 1),
        "serve.warm_hit_rate": warm_hit_rate,
        "serve.warm_lookup_frac":
            (t["serve.warm_lookup"] + t["serve.warm_store"]) / step_s if step_s else 0.0,
        "serve.factorization_reuse": factorization_reuse,
        "serve.wait_frac": wait_frac,
        "fleet.route_frac": t["fleet.submit"] / wall_s,
        "fleet.overhead_frac": (t["fleet.submit"] + t["fleet.poll"] - step_s) / wall_s,
        "fleet.worker_busy_frac": step_s / wall_s,
        "fleet.affinity_miss": float(affinity_miss),
        "trace.overhead_frac": overhead_frac,
    }


def finish(raw: RawRun, speed: SpeedMap) -> RunResult:
    """Convert a raw run to reference seconds and compute its metrics.

    Per-layer times (``*_ms``, ``*_us``) scale by the run's mean speed over
    its busy intervals, and ``batch.gflops`` inversely; the end-to-end
    times convert interval by interval.
    """
    busy_raw = sum(b - a for a, b in raw.busy)
    busy_ref = sum(speed.duration(a, b) for a, b in raw.busy)
    scale = busy_ref / busy_raw
    info = {**raw.info, "calib_s": speed.calib_s, "speed_scale": scale}
    if raw.layers is not None:
        metrics = {
            name: value * scale if name.endswith(("_ms", "_us"))
            else value / scale if name == "batch.gflops" else value
            for name, value in raw.layers.items()
        }
        return RunResult(raw.correct, raw.attempted, raw.failed, metrics, info)
    latencies = np.array([speed.duration(a, b) for a, b in raw.requests])
    info["latency_p50_ms_raw"] = 1e3 * float(np.median([b - a for a, b in raw.requests]))
    metrics = {
        "setup_s": statistics.median(speed.duration(a, b) for a, b in raw.setups),
        "latency_p50_ms": 1e3 * float(np.percentile(latencies, 50)),
        "latency_p90_ms": 1e3 * float(np.percentile(latencies, 90)),
        "throughput_rps": len(raw.requests) / busy_ref,
        "peak_rss_mb": raw.rss_mb,
    }
    return RunResult(raw.correct, raw.attempted, raw.failed, metrics, info)


# -- solve workloads -----------------------------------------------------------
def run_solve(w: SolveWorkload, seed: int, seconds: float, trace: bool,
              sizes: Sizes, smoke: bool) -> RawRun:
    spec = METHOD_SPECS[Method.parse(w.method)]
    config = spec.default_config(
        eps_rel=w.smoke_eps if smoke else w.eps_rel, max_iter=w.max_iter
    )
    gap_tol = max(w.gap_tol, SMOKE_GAP_TOL) if smoke else w.gap_tol
    nets = perturbed_feeders(resolve_feeder(w.feeder), seed)
    setups: list[tuple[float, float]] = []
    build_s: list[float] = []
    make_s: list[float] = []

    def set_up():
        net = next(nets)
        t0 = _clock()
        problem = build_method_problem(net, w.method)
        t1 = _clock()
        solver = make_method_solver(problem, config)
        t2 = _clock()
        setups.append((t0, t2))
        build_s.append(t1 - t0)
        make_s.append(t2 - t1)
        return problem, solver

    # Millisecond set-ups need many samples for a steady median; the
    # surplus is dropped, the first ``sizes.setups`` wait for the window.
    pending: deque = deque()
    begin = _clock()
    while len(setups) < sizes.setups or _clock() - begin < sizes.setup_seconds:
        built = set_up()
        if len(pending) < sizes.setups:
            pending.append(built)
    first = pending[0][1]
    start = _clock()
    first.solve(max_iter=sizes.warmup_iterations)
    iteration_s = (_clock() - start) / sizes.warmup_iterations
    overhead = 0.0
    probes = LayerProbes()
    if trace:
        budget = max(50, int(OVERHEAD_TRIAL_S / iteration_s))
        overhead = probe_overhead(
            lambda: first.solve(max_iter=budget), sizes.overhead_trials
        )
        probes.install()
    solves: list[tuple[float, float]] = []
    iterations: list[int] = []
    gaps: list[float] = []
    failed = 0
    try:
        start = _clock()
        while True:
            if not pending:
                pending.append(set_up())
            problem, solver = pending.popleft()
            t0 = _clock()
            result = solver.solve()
            solves.append((t0, _clock()))
            # Untimed check, right away, so no model outlives its solve.
            gaps.append(relative_gap(problem.objective(result.x),
                                     reference_objective(problem)))
            iterations.append(int(result.iterations))
            failed += not result.converged or gaps[-1] > gap_tol
            typical = statistics.median(b - a for a, b in solves)
            if _clock() - start + typical > seconds:
                break
        wall_s = _clock() - start
    finally:
        probes.uninstall()

    solved = len(solves)
    solve_s = sum(b - a for a, b in solves)
    info = {
        "answered": solved,
        "iterations_median": statistics.median(iterations),
        "iter_us_raw": 1e6 * solve_s / sum(iterations),
        "obj_gap_median": statistics.median(gaps),
        "obj_gap_max": max(gaps),
        "gap_tol": gap_tol,
    }
    layers = None
    if trace:
        run_s = probes.t["loop.run"]
        layers = layer_metrics(
            probes,
            setup_model_s=statistics.median(build_s),
            setup_solver_s=statistics.median(make_s),
            stages={
                "build": statistics.median(build_s),
                "stack": statistics.median(make_s),
                "solve": run_s / solved,
                "other": (solve_s - run_s) / solved,
            },
            requests=solved,
            request_iterations=sum(iterations),
            wall_s=wall_s,
            warm_hit_rate=0.0,
            factorization_reuse=0.0,
            wait_frac=0.0,
            affinity_miss=0,
            overhead_frac=overhead,
        )
    return RawRun(failed == 0, solved, failed, info, setups, solves, solves,
                  peak_rss_mb(), layers)


# -- serve workloads -----------------------------------------------------------
@dataclass
class _Answer:
    request: OPFRequest
    response: object
    sent: float
    done: float


def serve_overhead(feeder: str, trials: int) -> float:
    """trace.overhead_frac of the serving path: one stacked batch of eight
    fixed-budget requests through an engine, probed vs unprobed."""
    engine = ScenarioEngine(max_batch=SERVE_MAX_BATCH, warm_start=False)
    batch = [
        OPFRequest(request_id=f"overhead-{i}", feeder=feeder,
                   options=SolveOptions(max_iter=SERVE_OVERHEAD_ITERATIONS))
        for i in range(SERVE_MAX_BATCH)
    ]
    engine.serve(batch)  # builds the plan and its factorizations
    return probe_overhead(lambda: engine.serve(batch), trials)


def closed_loop(fleet: FleetFrontend, stream: RequestStream, feeders, clients: int,
                requests: int):
    """``clients`` callers, client ``i`` asking about ``feeders[i % n]``,
    each sending its next request as soon as its answer is back, until
    ``requests`` have been sent; then what is in flight drains.

    Fixing each client's feeder keeps every topology's share of the load
    constant, and a fixed request count makes a run's work depend on its
    seed only, not on how fast the CPU was.  Returns ``(answers,
    attempted, duplicates, missing, start, end)``.  A latency runs from
    just before ``submit`` to the ``poll`` that returned the answer.
    """
    in_flight: dict[str, tuple[OPFRequest, float, int]] = {}
    answers: list[_Answer] = []
    attempted = duplicates = 0
    idle = list(range(clients))
    start = last_progress = _clock()
    while True:
        rejected = []
        for client in idle:
            if attempted == requests:
                break
            request = stream.next(feeders[client % len(feeders)])
            attempted += 1
            sent = _clock()
            rejection = fleet.submit(request)
            if rejection is None:
                in_flight[request.request_id] = (request, sent, client)
            else:
                answers.append(_Answer(request, rejection, sent, sent))
                rejected.append(client)
        idle = rejected
        done = fleet.poll()
        now = _clock()
        for response in done:
            entry = in_flight.pop(response.request_id, None)
            if entry is None:
                duplicates += 1
                continue
            request, sent, client = entry
            answers.append(_Answer(request, response, sent, now))
            idle.append(client)
        if done:
            last_progress = now
        if not in_flight and attempted == requests:
            break
        if now - last_progress > fleet.config.response_timeout_s:
            break  # stalled: what is still in flight counts as missing
    return answers, attempted, duplicates, len(in_flight), start, _clock()


def run_serve(w: ServeWorkload, seed: int, seconds: float, trace: bool,
              sizes: Sizes, smoke: bool) -> RawRun:
    feeders = SERVE_FEEDERS[: sizes.feeders]
    config = FleetConfig(
        n_workers=SERVE_WORKERS,
        mode=MODE_SIM,
        max_batch=SERVE_MAX_BATCH,
        warm_start=w.warm_start,
        response_timeout_s=60.0,
    )
    stream = RequestStream(seed, feeders, w.spread)
    overhead = serve_overhead(feeders[0], sizes.overhead_trials) if trace else 0.0
    probes = LayerProbes()
    if trace:
        probes.install()
    fleet = None
    setups: list[tuple[float, float]] = []
    try:
        for r in range(sizes.setups):
            if fleet is not None:
                fleet.close()
            t0 = _clock()
            fleet = FleetFrontend(config)
            fleet.serve([
                OPFRequest(request_id=f"plan-{r}-{f}", feeder=f,
                           options=SolveOptions(max_iter=1))
                for f in feeders
            ])
            setups.append((t0, _clock()))
        plans = max(probes.n["serve.plan"], 1)
        setup_model_s = probes.t["serve.plan"] / plans
        setup_solver_s = probes.t["serve.build"] / plans
        # Untimed priming fills the warm-start cache the way a long-running
        # server has it filled.
        prime = sizes.prime if w.warm_start else 0
        primed = fleet.serve([stream.next(f) for _ in range(prime) for f in feeders])
        if any(not r.ok for r in primed):
            raise RuntimeError(f"priming failed: {[r.status for r in primed]}")
        probes.reset()
        answers, attempted, duplicates, missing, start, end = closed_loop(
            fleet, stream, feeders, sizes.clients, max(1, round(seconds * w.rate))
        )
        affinity_miss = fleet.metrics.counter("fleet.affinity_miss").value
    finally:
        probes.uninstall()
        if fleet is not None:
            fleet.close()
    rss = peak_rss_mb()
    computed = reused = 0
    for stats in fleet.snapshot()["workers"].values():
        computed += stats.get("factorizations_computed", 0)
        reused += stats.get("factorizations_reused", 0)

    responses = [a.response for a in answers]
    failed = missing + duplicates + sum(1 for r in responses if not r.ok)
    ok = [a for a in answers if a.response.ok]
    sample = np.random.default_rng([seed, 1]).permutation(len(ok))[: sizes.gap_sample]
    gap_tol = max(w.gap_tol, SMOKE_GAP_TOL) if smoke else w.gap_tol
    reference_plans: dict[str, TopologyPlan] = {}
    gaps = []
    for i in sample:
        answer = ok[int(i)]
        feeder = answer.request.feeder
        if feeder not in reference_plans:
            reference_plans[feeder] = TopologyPlan(feeder)
        lp = reference_plans[feeder].build_scenario(answer.request).lp
        gaps.append(relative_gap(answer.response.objective, solve_reference(lp).objective))
    failed += sum(1 for g in gaps if g > gap_tol)

    iterations = [r.iterations for r in responses if r.ok]
    waits = [(r.latency_seconds - r.solve_seconds) / r.latency_seconds
             for r in responses if r.ok and r.latency_seconds > 0]
    info = {
        "answered": len(answers),
        "duplicates": duplicates,
        "missing": missing,
        "iterations_mean": statistics.fmean(iterations) if iterations else 0.0,
        "warm_hit_rate":
            statistics.fmean(r.warm_started for r in responses) if responses else 0.0,
        "serve.wait_ms_raw": 1e3 * statistics.median(
            r.latency_seconds - r.solve_seconds for r in responses) if responses else 0.0,
        "fleet.overhead_ms_raw": 1e3 * statistics.median(
            (a.done - a.sent) - a.response.latency_seconds for a in ok) if ok else 0.0,
        "factorization_reuse": reused / max(computed + reused, 1),
        "obj_gap_median": statistics.median(gaps) if gaps else 0.0,
        "obj_gap_max": max(gaps) if gaps else 0.0,
        "gap_tol": gap_tol,
    }
    layers = None
    if trace:
        served = max(probes.n["serve.responses"], 1)
        build, stack, solve = (probes.t[k] for k in ("serve.build", "batch.build", "loop.run"))
        layers = layer_metrics(
            probes,
            setup_model_s=setup_model_s,
            setup_solver_s=setup_solver_s,
            stages={
                "build": build / served,
                "stack": stack / served,
                "solve": solve / served,
                "other": (probes.t["serve.step"] - build - stack - solve) / served,
            },
            requests=len(iterations),
            request_iterations=sum(iterations),
            wall_s=end - start,
            warm_hit_rate=info["warm_hit_rate"],
            factorization_reuse=info["factorization_reuse"],
            wait_frac=statistics.median(waits) if waits else 0.0,
            affinity_miss=affinity_miss,
            overhead_frac=overhead,
        )
    correct = failed == 0 and len(gaps) > 0
    return RawRun(correct, attempted, failed, info, setups,
                  [(a.sent, a.done) for a in ok], [(start, end)], rss, layers)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> RunResult:
    """Run one workload once, pinned to one CPU beside the calibration
    sidecar; the entry point of ``run.py`` and of the smoke test."""
    workload = WORKLOADS[name]
    sizes = SMOKE if smoke else FULL
    runner = run_solve if isinstance(workload, SolveWorkload) else run_serve
    previous = pin_to_one_cpu()
    try:
        with Calibrator() as calibrator:
            raw = runner(workload, seed, seconds, trace, sizes, smoke)
    finally:
        restore_affinity(previous)
    return finish(raw, SpeedMap(calibrator.samples))
