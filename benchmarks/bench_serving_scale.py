"""Fleet horizontal scaling: aggregate throughput at 1, 2 and 4 workers.

Serves one mixed-topology workload (ieee13 plus seven synthetic feeders,
round-robin interleaved — the fleet's natural traffic shape) through
process-mode fleets of 1, 2 and 4 workers and writes the scoreboard to
``BENCH_serving_scale.json`` at the repository root.  A self-healing
section (sim fleet, virtual clock, bit-identical replay) measures the
supervisor's MTTR and the warm-hit rate before/during/after a worker
outage with cache re-warming, plus a full seeded chaos-soak report.

Throughput accounting
---------------------
This container exposes a single CPU core, so 4 worker processes cannot
show wall-clock speedup here — they time-slice one core.  The benchmark
therefore follows the repo's established virtual-clock methodology (the
simulated MPI ranks, the modeled GPU track): each worker measures its own
*CPU-busy* seconds with ``time.process_time()`` — immune to core
contention, because a descheduled process accumulates no process time —
and the fleet's aggregate throughput is computed against the **critical
path**, ``max`` over workers of busy seconds, which is the elapsed time
of the same run on one-core-per-worker hardware.  The measured wall clock
is reported alongside (``throughput_rps_wall``), and ``cpu_count``
records the machine so nobody mistakes the modeled number for a local
wall-clock measurement.

Work conservation makes the comparison honest: ``warm_start=False`` (no
history effects), ``max_batch=1`` (no batch-shape effects), and a feeder
set chosen so consistent-hash routing splits topologies exactly 4/4 at
two workers and 2/2/2/2 at four — every fleet size performs the identical
set of cold solves, only the placement differs.  The per-request
objectives are asserted bit-identical across fleet sizes.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from pathlib import Path

from _common import report

from repro.fleet import (
    FleetConfig,
    FleetFrontend,
    FleetSupervisor,
    HashRing,
    SupervisorConfig,
    generate_mixed_scenarios,
    run_chaos_soak,
)
from repro.resilience import FaultPlan, WorkerCrash
from repro.utils import format_table

#: Mixed ieee13/synthetic feeder set whose topology keys land exactly
#: balanced on the fleet's hash ring — 4/4 over {w0,w1} and 2/2/2/2 over
#: {w0..w3} — *and* whose per-shard cold-solve CPU cost balances to
#: within ~1% at both fleet sizes (count balance alone is not enough:
#: topologies converge at different rates, and an expensive pair landing
#: on one shard caps the critical-path speedup).  Pinned by sha256
#: routing; test_fleet_routing.py guards the hash function against drift.
FEEDERS = [
    "ieee13",
    "synthetic:20:0",
    "synthetic:20:1",
    "synthetic:20:4",
    "synthetic:20:8",
    "synthetic:20:11",
    "synthetic:20:12",
    "synthetic:20:17",
]
REQUESTS_PER_TOPOLOGY = 3
SEED = 11
WORKER_COUNTS = (1, 2, 4)
OUTPUT = Path(__file__).parent.parent / "BENCH_serving_scale.json"


def _shard_balance(n_workers: int) -> dict[str, int]:
    ring = HashRing([f"w{i}" for i in range(n_workers)])
    counts: dict[str, int] = {f"w{i}": 0 for i in range(n_workers)}
    for feeder in FEEDERS:
        from repro.serve import OPFRequest

        counts[ring.route(OPFRequest(request_id="x", feeder=feeder).topology_key())] += 1
    return counts


def _run_fleet(requests, n_workers: int) -> dict:
    config = FleetConfig(
        n_workers=n_workers,
        mode="process",
        warm_start=False,
        max_batch=1,
        response_timeout_s=600.0,
    )
    t0 = time.perf_counter()
    with FleetFrontend(config) as fleet:
        responses = fleet.serve(requests)
        snap = fleet.snapshot()
    wall_s = time.perf_counter() - t0
    busy = {wid: ws["worker.busy_cpu_s"] for wid, ws in snap["workers"].items()}
    served = {wid: ws["worker.served"] for wid, ws in snap["workers"].items()}
    makespan_s = max(busy.values())
    statuses: dict[str, int] = {}
    for r in responses:
        statuses[r.status] = statuses.get(r.status, 0) + 1
    return {
        "n_workers": n_workers,
        "busy_s_per_worker": {k: round(v, 4) for k, v in sorted(busy.items())},
        "served_per_worker": dict(sorted(served.items())),
        "busy_total_s": round(sum(busy.values()), 4),
        "makespan_s": round(makespan_s, 4),
        "throughput_rps": round(len(requests) / makespan_s, 3),
        "wall_s": round(wall_s, 3),
        "throughput_rps_wall": round(len(requests) / wall_s, 3),
        "statuses": statuses,
        "objectives": {r.request_id: r.objective for r in responses},
    }


def _run_self_healing() -> dict:
    """Warm-hit rate before / during / after a worker outage, plus MTTR.

    Runs on the deterministic sim fleet (virtual clock) so every number
    here replays bit-identically: a two-worker fleet serves repeats of
    one topology owned by w1; w1 is killed mid-stream, the failover wave
    lands cold on the survivor, and the supervisor restarts + re-warms
    w1 from the survivor's cache before the final wave.
    """
    feeders = ["ieee13"]  # routes to w1 on the two-worker ring
    plan = FaultPlan(seed=SEED, faults=(WorkerCrash(worker="w1", after_served=8),))
    fleet = FleetFrontend(
        FleetConfig(n_workers=2, max_batch=2, warm_start=True), fault_plan=plan
    )
    sup = FleetSupervisor(
        fleet,
        SupervisorConfig(miss_threshold=2, restart_base_delay_s=0.05, seed=SEED),
    )

    def wave() -> float:
        reqs = generate_mixed_scenarios(feeders, 4, seed=SEED)
        resp = sup.serve(reqs)
        assert all(r.status == "converged" for r in resp)
        return sum(1 for r in resp if r.warm_started) / len(resp)

    wave()  # cold warm-up: populates w1's cache
    warm_hit_before = wave()  # steady state: every repeat warm-starts
    warm_hit_during = wave()  # w1 dies; failover lands cold on w0
    sup.stabilize()  # restart + re-warm w1 from the survivor
    warm_hit_after = wave()  # back on w1, warm state recovered
    mttr = sorted(
        float(v) for v in fleet.metrics.histogram("fleet.restart.mttr_s").values()
    )
    capacity = sup.capacity()
    fleet.close()

    # Seeded kill/restart storm on a 4-worker fleet: exactly-once and
    # bit-identical vs the fault-free twin, plus its own MTTR samples.
    soak = run_chaos_soak().as_dict()
    return {
        "outage": {
            "warm_hit_before": warm_hit_before,
            "warm_hit_during": warm_hit_during,
            "warm_hit_after": warm_hit_after,
            "mttr_virtual_s": mttr,
            "capacity": capacity,
        },
        "chaos_soak": soak,
    }


def run() -> dict:
    n_requests = REQUESTS_PER_TOPOLOGY * len(FEEDERS)
    requests = generate_mixed_scenarios(FEEDERS, n_requests, seed=SEED)
    fleets = {str(n): _run_fleet(requests, n) for n in WORKER_COUNTS}

    base = fleets["1"]
    stats = {
        "instance": {
            "feeders": FEEDERS,
            "n_requests": n_requests,
            "seed": SEED,
            "max_batch": 1,
            "warm_start": False,
            "mode": "process",
        },
        "cpu_count": multiprocessing.cpu_count(),
        "throughput_model": (
            "critical-path: per-worker CPU-busy seconds via time.process_time() "
            "inside each worker process; aggregate throughput = n_requests / "
            "max(worker busy).  Contention-immune, so it measures horizontal "
            "scaling even when the host has fewer cores than workers; "
            "throughput_rps_wall is the same run's measured wall clock on "
            "cpu_count cores."
        ),
        "shard_balance": {str(n): _shard_balance(n) for n in WORKER_COUNTS},
        "fleets": {
            k: {a: b for a, b in v.items() if a != "objectives"}
            for k, v in fleets.items()
        },
        "speedup_2w": round(base["makespan_s"] / fleets["2"]["makespan_s"], 3),
        "speedup_4w": round(base["makespan_s"] / fleets["4"]["makespan_s"], 3),
        "self_healing": _run_self_healing(),
    }
    # Placement invariance: every fleet size produced identical results.
    for n in ("2", "4"):
        assert fleets[n]["objectives"] == base["objectives"], (
            f"{n}-worker fleet drifted from the 1-worker results"
        )
    OUTPUT.write_text(json.dumps(stats, indent=2) + "\n")

    rows = [
        [
            f["n_workers"],
            f["busy_total_s"],
            f["makespan_s"],
            f["throughput_rps"],
            f["wall_s"],
        ]
        for f in (fleets[str(n)] for n in WORKER_COUNTS)
    ]
    report(
        "bench_serving_scale",
        format_table(
            ["workers", "busy total s", "makespan s", "rps (critical path)", "wall s"],
            rows,
            title=(
                f"Fleet scaling — {n_requests} mixed-topology requests "
                f"(speedup {stats['speedup_2w']:.2f}x @ 2w, "
                f"{stats['speedup_4w']:.2f}x @ 4w; host has "
                f"{stats['cpu_count']} core(s))"
            ),
        ),
    )
    heal = stats["self_healing"]["outage"]
    soak = stats["self_healing"]["chaos_soak"]
    report(
        "bench_serving_scale.self_healing",
        format_table(
            ["phase", "warm-hit rate"],
            [
                ["before outage", heal["warm_hit_before"]],
                ["during outage", heal["warm_hit_during"]],
                ["after re-warm", heal["warm_hit_after"]],
            ],
            title=(
                f"Self-healing — MTTR {heal['mttr_virtual_s']} virtual s; "
                f"chaos soak: {soak['deaths']} deaths, "
                f"{soak['restarts']} restarts, ok={soak['ok']}"
            ),
        ),
    )
    return stats


def test_serving_scale():
    stats = run()
    for n, fleet in stats["fleets"].items():
        assert fleet["statuses"] == {"converged": stats["instance"]["n_requests"]}, n
    # Near-linear horizontal scaling on the critical path.
    assert stats["speedup_2w"] >= 1.6
    assert stats["speedup_4w"] >= 3.0
    # The chosen feeder set keeps every shard loaded.
    assert all(v > 0 for v in stats["shard_balance"]["4"].values())
    # Self-healing: re-warming restores the steady-state warm-hit rate
    # the outage destroyed, and the chaos soak's invariants all held.
    heal = stats["self_healing"]["outage"]
    assert heal["warm_hit_before"] == 1.0
    assert heal["warm_hit_during"] < heal["warm_hit_before"]
    assert heal["warm_hit_after"] == heal["warm_hit_before"]
    assert heal["mttr_virtual_s"] and heal["capacity"]["recovered"]
    assert stats["self_healing"]["chaos_soak"]["ok"]
    assert OUTPUT.exists()


if __name__ == "__main__":
    stats = run()
    print(f"wrote {OUTPUT}")
