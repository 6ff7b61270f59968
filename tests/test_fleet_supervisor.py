"""Self-healing fleet tests: heartbeat death detection, auto-restart
with seeded backoff, crash-loop quarantine, cache re-warming, graceful
drain, and the seeded chaos soak (docs/SERVING.md, self-healing
section).

Sim-mode supervision runs on a virtual clock — one tick is one
heartbeat interval — so every kill/detect/backoff/restart/rewarm cycle
here is a deterministic function of (fleet seed, fault plan, supervisor
seed) and the replay assertions compare full reports for equality.
"""

import multiprocessing
import queue as queue_mod
import time

import pytest

from repro.fleet import (
    FleetConfig,
    FleetFrontend,
    FleetSupervisor,
    ProcessWorker,
    SupervisorConfig,
    WorkerSpec,
    generate_mixed_scenarios,
    run_chaos_soak,
)
from repro.fleet.worker import WORKER_READY
from repro.resilience import FaultPlan, WorkerCrash
from repro.serve import STATUS_CONVERGED, STATUS_ERROR, ScenarioEngine
from repro.serve.requests import OPFRequest
from repro.serve.warmstart import WarmStartCache
from repro.utils.exceptions import ReproError

#: Same pinned shard set as test_fleet: on a 2-ring, ieee13 and
#: synthetic:20:2 land on w1, the other two on w0.
FEEDERS = ["ieee13", "synthetic:20:0", "synthetic:20:2", "synthetic:20:9"]
W1_FEEDERS = {"ieee13", "synthetic:20:2"}


def mixed(count, seed=7):
    return generate_mixed_scenarios(FEEDERS, count, seed=seed)


def sim_supervisor(fleet, **overrides):
    defaults = dict(miss_threshold=2, restart_base_delay_s=0.05, seed=3)
    defaults.update(overrides)
    return FleetSupervisor(fleet, SupervisorConfig(**defaults))


# ---------------------------------------------------------------------------
# Warm-state export/import (the handoff primitive everything else uses)
class TestWarmStateHandoff:
    def test_cache_export_import_roundtrip_bit_identical(self):
        src = WarmStartCache(capacity=8)
        import numpy as np

        for i in range(3):
            src.store(
                "topoA", f"s{i}", np.array([1.0 + i]), np.array([2.0 * i]),
                np.array([3.0]), np.array([4.0]), iterations=10 + i,
            )
        src.store("topoB", "x", np.array([9.0]), np.array([1.0]),
                  np.array([1.0]), np.array([1.0]), iterations=5)
        dst = WarmStartCache(capacity=8)
        assert dst.import_entries(src.export_topology({"topoA"})) == 3
        assert len(dst) == 3
        hit = dst.lookup("topoA", np.array([2.0]))
        assert hit is not None
        entry, dist = hit
        assert dist == 0.0
        assert entry.iterations == 11
        assert dst.lookup("topoB", np.array([9.0])) is None

    def test_engine_export_import_rebuilds_plans_and_projections(self):
        src = ScenarioEngine(max_batch=4)
        reqs = [OPFRequest(request_id=f"a{i}", feeder="ieee13",
                           load_scale=1.0 + 0.01 * i) for i in range(3)]
        assert all(r.status == STATUS_CONVERGED for r in src.serve(reqs))
        key = reqs[0].topology_key()
        payload = src.export_topology_state({key})
        assert payload["plans"][key] == {"feeder": "ieee13", "method": "linearized"}
        assert payload["warm_entries"]

        dst = ScenarioEngine(max_batch=4)
        counts = dst.import_topology_state(payload)
        assert counts == {"topologies": 1, "warm_entries": len(payload["warm_entries"])}
        # The imported plan built its own base projections, byte for byte
        # the source's: serving an unperturbed scenario computes nothing.
        plan = dst.plans[key]
        for got, want in zip(plan.base_local, src.plans[key].base_local, strict=True):
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        dst.serve([OPFRequest(request_id="b0", feeder="ieee13", load_scale=1.0)])
        assert plan.factorizations_computed == 0
        assert plan.factorizations_reused > 0

    def test_cold_engine_skips_warm_entries_when_warm_start_off(self):
        src = ScenarioEngine(max_batch=2)
        src.serve([OPFRequest(request_id="a", feeder="ieee13")])
        dst = ScenarioEngine(max_batch=2, warm_start=False)
        counts = dst.import_topology_state(src.export_topology_state(None))
        assert counts["warm_entries"] == 0
        assert len(dst.cache) == 0


# ---------------------------------------------------------------------------
# Heartbeat detection + auto-restart (sim, deterministic)
class TestSimRestart:
    def test_kill_detect_restart_restores_ring_and_serves_everything(self):
        plan = FaultPlan(seed=5, faults=(WorkerCrash(worker="w1", after_served=2),))
        fleet = FleetFrontend(
            FleetConfig(n_workers=2, max_batch=2, warm_start=False),
            fault_plan=plan,
        )
        routes_before = {f: None for f in FEEDERS}
        reqs = mixed(8)
        for r in reqs:
            routes_before[r.feeder] = fleet.ring.route(r.topology_key())
        sup = sim_supervisor(fleet)
        responses = sup.serve(reqs)
        assert [r.status for r in responses] == [STATUS_CONVERGED] * 8
        sup.stabilize()
        snap = fleet.metrics.snapshot()
        assert snap["fleet.worker_deaths"] == 1
        assert snap["fleet.restart.count"] == 1
        assert fleet.workers["w1"].alive
        # The ring is a pure function of the member set: restart restores
        # the original routing exactly.
        for r in reqs:
            assert fleet.ring.route(r.topology_key()) == routes_before[r.feeder]
        assert sup.capacity() == {"alive": 2, "target": 2, "recovered": True}
        # MTTR is virtual-clock deterministic: detection -> restart is
        # exactly one heartbeat tick with the test backoff.
        mttr = fleet.metrics.histogram("fleet.restart.mttr_s").values()
        assert list(mttr) == [1.0]

    def test_supervised_run_replays_bit_identically(self):
        def run():
            plan = FaultPlan(
                seed=5, faults=(WorkerCrash(worker="w1", after_served=2),)
            )
            fleet = FleetFrontend(
                FleetConfig(n_workers=2, max_batch=2, warm_start=False),
                fault_plan=plan,
            )
            sup = sim_supervisor(fleet)
            responses = sup.serve(mixed(8))
            sup.stabilize()
            return (
                [(r.request_id, r.status, r.objective, r.iterations)
                 for r in responses],
                sup.snapshot(),
                list(fleet.metrics.histogram("fleet.restart.mttr_s").values()),
            )

        assert run() == run()

    def test_restart_requires_a_dead_worker(self):
        fleet = FleetFrontend(FleetConfig(n_workers=2))
        with pytest.raises(ReproError, match="alive"):
            fleet.restart_worker("w0")


# ---------------------------------------------------------------------------
# Crash-loop quarantine
class TestQuarantine:
    def test_crash_looping_worker_is_quarantined_after_budget(self):
        # w1's schedule is [0, 0]: incarnation 0 dies at its first batch,
        # the restarted incarnation dies at *its* first batch too.  With
        # max_restarts=1 the second death exhausts the budget.
        plan = FaultPlan(seed=5, faults=(
            WorkerCrash(worker="w1", after_served=0),
            WorkerCrash(worker="w1", after_served=0),
        ))
        fleet = FleetFrontend(
            FleetConfig(n_workers=2, max_batch=2, warm_start=False),
            fault_plan=plan,
        )
        sup = sim_supervisor(fleet, max_restarts=1)
        wave1 = sup.serve(mixed(8))
        assert [r.status for r in wave1] == [STATUS_CONVERGED] * 8
        sup.stabilize()  # restarts w1 (incarnation 1, crash point 0)
        assert fleet.workers["w1"].alive
        # Wave 2 routes w1's keys back to it; it dies immediately, the
        # work fails over, and the second death quarantines the id.
        wave2 = sup.serve(mixed(8))
        assert [r.status for r in wave2] == [STATUS_CONVERGED] * 8
        cap = sup.stabilize()
        assert sup.quarantined() == {"w1"}
        assert cap == {"alive": 1, "target": 1, "recovered": True}
        snap = fleet.metrics.snapshot()
        assert snap["fleet.restart.quarantined"] == 1
        assert snap["fleet.restart.count"] == 1  # never restarted again
        # Its vnodes stay rebalanced: every topology now routes to w0.
        for r in mixed(4):
            assert fleet.ring.route(r.topology_key()) == "w0"
        # And the fleet keeps serving at reduced capacity.
        wave3 = sup.serve(mixed(4))
        assert [r.status for r in wave3] == [STATUS_CONVERGED] * 4


# ---------------------------------------------------------------------------
# Cache re-warming
class TestRewarm:
    def _run(self, rewarm):
        """One topology (ieee13, owned by w1), two batches of two.

        Wave 1: w1 serves its first batch then dies; the second batch
        fails over to w0, which serves it cold and keeps the warm states.
        The supervisor restarts w1 and (optionally) re-warms it from w0.
        Wave 2 repeats the same scenarios on the restored ring.
        """
        plan = FaultPlan(seed=5, faults=(WorkerCrash(worker="w1", after_served=2),))
        fleet = FleetFrontend(
            FleetConfig(n_workers=2, max_batch=2, warm_start=True),
            fault_plan=plan,
        )
        sup = sim_supervisor(fleet, rewarm=rewarm)
        wave1_reqs = generate_mixed_scenarios(["ieee13"], 4, seed=7)
        wave1 = sup.serve(wave1_reqs)
        assert all(r.status == STATUS_CONVERGED for r in wave1)
        sup.stabilize()
        assert fleet.workers["w1"].alive
        assert fleet.metrics.snapshot()["fleet.restart.count"] == 1
        assert fleet.ring.route(wave1_reqs[0].topology_key()) == "w1"
        wave2 = sup.serve(generate_mixed_scenarios(["ieee13"], 4, seed=7))
        assert all(r.status == STATUS_CONVERGED for r in wave2)
        return fleet, wave2

    def test_rewarmed_worker_recovers_warm_hits_after_restart(self):
        fleet, wave2 = self._run(rewarm=True)
        # The handoff replayed warm state from the survivor, so every
        # repeat scenario warm-starts on the restarted worker.
        assert all(r.warm_started for r in wave2)
        snap = fleet.metrics.snapshot()
        assert snap["fleet.rewarm.topologies"] == 1
        assert snap["fleet.rewarm.warm_entries"] > 0
        assert len(fleet.workers["w1"].engine.cache) > 0

    def test_without_rewarm_the_restarted_worker_starts_cold(self):
        fleet, wave2 = self._run(rewarm=False)
        # The first post-restart batch has nothing to warm-start from;
        # only later batches warm up from wave 2's own stores.  Strictly
        # fewer warm hits than the rewarmed run's 4-of-4.
        assert sum(r.warm_started for r in wave2) < len(wave2)
        assert "fleet.rewarm.topologies" not in fleet.metrics.snapshot()

    def test_rewarm_rebuilds_the_plan_and_its_base(self):
        fleet, _ = self._run(rewarm=True)
        (key, plan), = fleet.workers["w1"].engine.plans.items()
        donor = fleet.workers["w0"].engine.plans[key]
        # The handoff carries no projections: the rewarmed worker built its
        # plan's base itself, byte for byte the donor's, and wave 2 took it.
        for got, want in zip(plan.base_local, donor.base_local, strict=True):
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert plan.factorizations_reused > 0


# ---------------------------------------------------------------------------
# Graceful drain
class TestDrain:
    def test_drain_finishes_in_flight_hands_off_and_removes(self):
        fleet = FleetFrontend(FleetConfig(n_workers=2, max_batch=2, warm_start=True))
        sup = sim_supervisor(fleet)
        assert all(r.status == STATUS_CONVERGED for r in sup.serve(mixed(8)))
        # Mid-stream: submit, make partial progress, then drain w1 with
        # requests still in flight on it.
        reqs = mixed(8, seed=11)
        for r in reqs:
            assert fleet.submit(r) is None
        fleet.poll()
        assert fleet._outstanding["w1"]
        report = sup.drain("w1")
        assert report["lost"] == 0 and report["duplicated"] == 0
        assert report["finished"] > 0
        assert report["handoff"]["topologies"] == 2
        assert report["handoff"]["warm_entries"] > 0
        assert "w1" not in fleet.workers
        assert "w1" not in fleet.ring.workers()
        # The remaining stream completes on the survivor, exactly once:
        # both waves reused the same ids, so each appears exactly twice.
        rest = fleet.run()
        counts: dict[str, int] = {}
        for r in fleet.responses:
            counts[r.request_id] = counts.get(r.request_id, 0) + 1
        assert set(counts) == {r.request_id for r in reqs}
        assert all(n == 2 for n in counts.values())
        assert all(r.status == STATUS_CONVERGED for r in rest)
        snap = fleet.metrics.snapshot()
        assert snap["fleet.drain.count"] == 1
        assert snap["fleet.drain.handoff_entries"] > 0

    def test_drain_refuses_dead_and_last_workers(self):
        fleet = FleetFrontend(FleetConfig(n_workers=2, warm_start=False))
        sup = sim_supervisor(fleet)
        fleet.kill_worker("w1")
        with pytest.raises(ReproError, match="dead"):
            sup.drain("w1")
        with pytest.raises(ReproError, match="last live worker"):
            sup.drain("w0")
        with pytest.raises(ReproError, match="unknown"):
            sup.drain("w9")


# ---------------------------------------------------------------------------
# Idempotent death handling (satellite regression)
class TestIdempotentDeaths:
    def test_kill_worker_twice_is_a_single_death(self):
        fleet = FleetFrontend(FleetConfig(n_workers=2, warm_start=False))
        for r in mixed(8):
            fleet.submit(r)
        fleet.kill_worker("w1")
        fleet.kill_worker("w1")  # no-op on an already-dead worker
        fleet.poll()
        fleet._handle_deaths()  # doubly-reported: guarded, no double reroute
        snap = fleet.metrics.snapshot()
        assert snap["fleet.worker_deaths"] == 1
        responses = fleet.run()
        ids = [r.request_id for r in fleet.responses]
        assert len(ids) == len(set(ids)) == 8
        assert all(r.status == STATUS_CONVERGED for r in responses)

    def test_restart_clears_the_death_record_for_redetection(self):
        fleet = FleetFrontend(FleetConfig(n_workers=2, warm_start=False))
        fleet.kill_worker("w1")
        fleet.poll()
        assert "w1" in fleet._dead_handled
        fleet.restart_worker("w1")
        assert "w1" not in fleet._dead_handled
        fleet.kill_worker("w1")
        fleet.poll()
        assert fleet.metrics.snapshot()["fleet.worker_deaths"] == 2


# ---------------------------------------------------------------------------
# The seeded chaos soak (acceptance: >= 4 workers, sim mode)
class TestChaosSoak:
    def test_soak_invariants_hold_under_kill_restart_storm(self):
        report = run_chaos_soak(n_workers=4, n_requests=24, kills=3, seed=17)
        assert report.ok
        assert report.deaths >= 2  # seed 17 targets three loaded workers
        assert report.restarts == report.deaths
        assert report.mttr_s  # measured, virtual-clock seconds
        assert report.quarantined == []

    def test_soak_replays_bit_identically_from_the_seed(self):
        a = run_chaos_soak(n_workers=4, n_requests=16, kills=3, seed=5)
        b = run_chaos_soak(n_workers=4, n_requests=16, kills=3, seed=5)
        assert a.as_dict() == b.as_dict()
        assert a.deaths >= 1

    def test_storm_generator_is_survivable_and_ascending(self):
        wids = ["w0", "w1", "w2", "w3"]
        plan = FaultPlan.fleet_storm(seed=9, worker_ids=wids, kills=6)
        targeted = {f.worker for f in plan.faults}
        assert len(targeted) < len(wids)  # at least one spared
        for wid in wids:
            schedule = plan.worker_crash_schedule(wid)
            assert schedule == sorted(schedule)
            if schedule:
                assert plan.worker_crash_after(wid) == schedule[0]


# ---------------------------------------------------------------------------
# Process-mode lifecycle edges (satellites) + the real restart cycle
class TestProcessLifecycle:
    def test_process_kill_restart_cycle_heals_and_stays_exact(self):
        """Acceptance: a kill+restart cycle in real multiprocessing mode —
        genuinely dead process, supervisor restart, exactly-once and
        bit-identical responses, capacity restored."""
        report = run_chaos_soak(
            n_workers=2, n_requests=8, kills=1, seed=5, mode="process",
            feeders=("ieee13", "synthetic:20:0"),
        )
        assert report.ok
        assert report.deaths >= 1
        assert report.restarts >= 1

    def test_heartbeats_flow_from_idle_process_workers(self):
        config = FleetConfig(
            n_workers=1, mode="process", heartbeat_interval_s=0.05
        )
        with FleetFrontend(config) as fleet:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                fleet._drain_response_q(timeout=0.1)
                if fleet.metrics.snapshot().get("fleet.heartbeat.received", 0) >= 2:
                    break
            snap = fleet.metrics.snapshot()
            assert snap["fleet.heartbeat.received"] >= 2
            assert fleet.last_heartbeat["w0"] > 0

    def test_shutdown_escalates_to_terminate_on_a_hung_worker(self):
        ctx = multiprocessing.get_context()
        response_q = ctx.Queue()
        worker = ProcessWorker(
            WorkerSpec(worker_id="hang", hang_on_shutdown=True,
                       heartbeat_interval_s=0.05),
            ctx, response_q,
        )
        kind, wid, _ = response_q.get(timeout=30.0)
        assert (kind, wid) == (WORKER_READY, "hang")
        t0 = time.monotonic()
        worker.shutdown(timeout_s=0.5)
        assert not worker.alive  # terminate() reaped it
        assert time.monotonic() - t0 < 10.0
        worker.shutdown()  # idempotent
        response_q.close()

    def test_close_with_outstanding_answers_error_responses(self):
        config = FleetConfig(n_workers=1, mode="process", warm_start=False)
        fleet = FleetFrontend(config)
        reqs = mixed(2)
        for r in reqs:
            assert fleet.submit(r) is None
        fleet.kill_worker("w0")  # die with the requests unanswered
        fleet.close()
        by_id = {r.request_id: r for r in fleet.responses}
        assert set(by_id) == {r.request_id for r in reqs}
        assert all(r.status == STATUS_ERROR for r in by_id.values())

    def test_double_close_is_a_noop(self):
        fleet = FleetFrontend(FleetConfig(n_workers=1, mode="process"))
        fleet.close()
        fleet.close()  # second close: no exception, no double-shutdown

    def test_sim_close_is_guarded_too(self):
        fleet = FleetFrontend(FleetConfig(n_workers=1))
        for r in mixed(2):
            fleet.submit(r)
        fleet.close()
        assert all(r.status == STATUS_ERROR for r in fleet.responses)
        fleet.close()


# ---------------------------------------------------------------------------
# Spec validation
class TestSpecValidation:
    def test_heartbeat_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="heartbeat_interval_s"):
            WorkerSpec(worker_id="w0", heartbeat_interval_s=0.0)

    def test_supervisor_config_validation(self):
        with pytest.raises(ValueError, match="miss_threshold"):
            SupervisorConfig(miss_threshold=0)
        with pytest.raises(ValueError, match="max_restarts"):
            SupervisorConfig(max_restarts=-1)
        with pytest.raises(ValueError, match="spare"):
            FaultPlan.fleet_storm(seed=1, worker_ids=["w0"], kills=1, spare=1)
