"""Fleet failover: kill a worker mid-run, lose nothing.

The fleet frontend shards scenario-serving traffic across workers by
*topology affinity* — a consistent-hash ring over each request's feeder
hash — so every worker's projection/warm-start caches stay hot for the
topologies it owns.  This example runs the acceptance scenario of
docs/SERVING.md (fleet section) end to end, in deterministic sim mode:

* a 2-worker fleet serves a seeded mixed ieee13/synthetic workload,
* worker ``w0`` **crashes** (fail-stop) after serving its third batch,
* the frontend detects the death, removes ``w0`` from the ring, and
  re-routes its un-served requests to the survivor.

Because the crash fires at a batch boundary (served work is already
answered, queued work is re-routed), **no accepted request is lost** —
and with warm-starting disabled the re-routed solves are bit-identical
to a fault-free run, which the script verifies scenario for scenario.

Everything is seeded: rerunning reproduces the same routing, the same
crash point, and the same recovery.

Run:  python examples/fleet_failover.py
"""

from repro.fleet import FleetConfig, FleetFrontend, generate_mixed_scenarios
from repro.resilience import FaultPlan, WorkerCrash
from repro.serve import STATUS_CONVERGED

FEEDERS = ["ieee13", "synthetic:20:0", "synthetic:20:2", "synthetic:20:9"]
N_REQUESTS = 12
CRASH_AFTER_SERVED = 3


def main() -> None:
    requests = generate_mixed_scenarios(FEEDERS, N_REQUESTS, seed=7)
    config = FleetConfig(n_workers=2, mode="sim", max_batch=4, warm_start=False)
    plan = FaultPlan(seed=7, faults=(WorkerCrash(worker="w0", after_served=CRASH_AFTER_SERVED),))
    print(f"fault plan (seed {plan.seed}):")
    for fault in plan.faults:
        print(f"  - {fault}")

    with FleetFrontend(config, fault_plan=plan) as fleet:
        print("\ntopology shards:")
        for req, worker in sorted(fleet.assignment(requests).items()):
            print(f"  {req} -> {worker}")
        chaos = {r.request_id: r for r in fleet.serve(requests)}
        snap = fleet.snapshot()

    with FleetFrontend(config) as fleet:
        clean = {r.request_id: r for r in fleet.serve(requests)}

    assert set(chaos) == set(clean) == {r.request_id for r in requests}, (
        "an accepted request was lost in the failover"
    )
    for rid, resp in sorted(chaos.items()):
        assert resp.status == STATUS_CONVERGED, f"{rid}: {resp.status}"
        assert resp.objective == clean[rid].objective, f"{rid} drifted"
    print(f"\nall {len(chaos)} responses converged, objectives bit-identical")
    print("to the fault-free run — no accepted request was lost")

    print("\nfleet counters:")
    for name in ("fleet.worker_deaths", "fleet.rerouted", "fleet.accepted"):
        print(f"  {name:22s} {snap[name]}")
    assert snap["fleet.worker_deaths"] == 1
    assert snap["fleet.rerouted"] >= 1

    print("\nworkers:")
    for wid, ws in sorted(snap["workers"].items()):
        state = "alive" if ws["worker.alive"] else "dead"
        print(f"  {wid}: served {ws['worker.served']:2d}  {state}")


if __name__ == "__main__":
    main()
