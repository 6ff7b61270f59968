"""Closed-loop load-test harness for the fleet frontend.

Two traffic shapes, both seeded and fully reproducible:

* **open loop** — arrivals follow a Poisson process of the requested
  rate (exponential inter-arrival gaps drawn once, up front, from the
  seed).  The generator submits on schedule *regardless of completions*,
  which is what exposes queueing collapse: if the fleet cannot keep up,
  queues grow, spills rise, and eventually submissions bounce with
  structured backpressure.
* **closed loop** — a fixed number of in-flight requests ("virtual
  clients"); each completion immediately triggers the next submission.
  Throughput then measures the fleet's service capacity at that
  concurrency, never its queue capacity.

Latency percentiles come from the frontend's ``fleet.latency_s``
reservoir (exact until the sample bound, Algorithm R beyond it), so the
report is the same data an operator would scrape — the harness adds no
second bookkeeping path that could drift from production telemetry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.fleet.frontend import MODE_SIM, FleetFrontend
from repro.io.resolve import resolve_feeder
from repro.serve.requests import OPFRequest


def generate_mixed_scenarios(
    feeders: list[str],
    count: int,
    seed: int,
    spread: float = 0.15,
    method: str = "linearized",
) -> list[OPFRequest]:
    """Seeded load-perturbation scenarios round-robined over ``feeders``.

    The round-robin interleaving is the worst case for a batching engine
    (adjacent requests rarely share a topology) and the natural case for
    the fleet (each feeder's stream still lands on its affinity worker) —
    exactly the contrast the scaling benchmark measures.
    """
    if not feeders:
        raise ValueError("need at least one feeder")
    rng = np.random.default_rng(seed)
    load_names = {f: sorted(resolve_feeder(f).loads) for f in feeders}
    requests: list[OPFRequest] = []
    for i in range(count):
        feeder = feeders[i % len(feeders)]
        requests.append(
            OPFRequest(
                request_id=f"mix-{i:05d}",
                feeder=feeder,
                load_scale=float(1.0 + rng.uniform(-spread, spread)),
                load_multipliers={
                    name: float(1.0 + rng.uniform(-spread, spread))
                    for name in load_names[feeder]
                },
                method=method,
            )
        )
    return requests


@dataclass
class LoadTestReport:
    """Outcome of one load-test run against a fleet."""

    mode: str  # "open" or "closed"
    offered: int
    completed: int
    rejected: int
    wall_s: float
    throughput_rps: float
    latency: dict = field(default_factory=dict)  # reservoir summary
    status_counts: dict = field(default_factory=dict)
    fleet: dict = field(default_factory=dict)  # frontend metrics snapshot

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "offered": self.offered,
            "completed": self.completed,
            "rejected": self.rejected,
            "wall_s": self.wall_s,
            "throughput_rps": self.throughput_rps,
            "latency": self.latency,
            "status_counts": self.status_counts,
            "fleet": self.fleet,
        }


def poisson_arrival_times(rate_rps: float, count: int, seed: int) -> np.ndarray:
    """Cumulative arrival times (seconds) of a seeded Poisson process."""
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / rate_rps, size=count))


def _report(frontend: FleetFrontend, mode, offered, responses, wall_s) -> LoadTestReport:
    status_counts: dict[str, int] = {}
    for r in responses:
        status_counts[r.status] = status_counts.get(r.status, 0) + 1
    completed = sum(v for k, v in status_counts.items() if k != "rejected")
    snap = frontend.snapshot()
    return LoadTestReport(
        mode=mode,
        offered=offered,
        completed=completed,
        rejected=status_counts.get("rejected", 0),
        wall_s=wall_s,
        throughput_rps=completed / wall_s if wall_s > 0 else 0.0,
        latency=frontend.metrics.histogram("fleet.latency_s").summary(),
        status_counts=status_counts,
        fleet=snap,
    )


def run_open_loop(
    frontend: FleetFrontend,
    requests: list[OPFRequest],
    rate_rps: float,
    seed: int = 0,
) -> LoadTestReport:
    """Offer ``requests`` at seeded Poisson ``rate_rps`` arrivals.

    In process mode the schedule runs on the wall clock (the harness
    sleeps between arrivals); in sim mode the schedule degenerates to
    submit-then-poll rounds — arrival *order* and seeding are identical,
    only the physical pacing is elided, keeping the run deterministic.
    """
    arrivals = poisson_arrival_times(rate_rps, len(requests), seed)
    paced = frontend.config.mode != MODE_SIM
    responses = []
    t0 = time.perf_counter()
    for req, t_due in zip(requests, arrivals):
        if paced:
            lag = t_due - (time.perf_counter() - t0)
            if lag > 0:
                time.sleep(lag)
        rejection = frontend.submit(req)
        if rejection is not None:
            responses.append(rejection)
        responses.extend(frontend.poll())
    responses.extend(frontend.run())
    wall_s = time.perf_counter() - t0
    return _report(frontend, "open", len(requests), responses, wall_s)


def run_closed_loop(
    frontend: FleetFrontend,
    requests: list[OPFRequest],
    concurrency: int = 8,
) -> LoadTestReport:
    """Keep up to ``concurrency`` requests in flight until all are done."""
    if concurrency < 1:
        raise ValueError("concurrency must be at least 1")
    pending = list(reversed(requests))  # pop() from the front of the stream
    in_flight = 0
    responses = []
    t0 = time.perf_counter()
    while pending or in_flight > 0:
        while pending and in_flight < concurrency:
            rejection = frontend.submit(pending.pop())
            if rejection is not None:
                responses.append(rejection)
            else:
                in_flight += 1
        done = frontend.poll(timeout=0.005)
        responses.extend(done)
        in_flight -= len(done)
    wall_s = time.perf_counter() - t0
    return _report(frontend, "closed", len(requests), responses, wall_s)
