"""Fleet serving tests: affinity, spill, backpressure, breaker routing,
and the kill-one-worker failover-equivalence guarantee (docs/SERVING.md,
fleet section).

The failover tests run the engine with ``warm_start=False``: cold-start
stacked solves are batch-composition-invariant, so a request's objective
is bit-identical no matter which worker (or which retry of the routing)
serves it — which is what lets the faulted run be compared to the
fault-free run scenario for scenario, exactly.
"""

import re

import pytest

from repro.fleet import (
    FleetConfig,
    FleetFrontend,
    FleetSaturatedError,
    WorkerSpec,
    generate_mixed_scenarios,
)
from repro.fleet.worker import WorkerQueueFull
from repro.resilience import FaultPlan, WorkerCrash
from repro.serve import (
    STATUS_CONVERGED,
    STATUS_ERROR,
    STATUS_REJECTED,
    OPFRequest,
    ScenarioEngine,
)

#: Feeders whose topology keys split across both workers of a 2-ring
#: (pinned by the routing goldens; ieee13 and :20:2 land on w1, the
#: other two on w0).
FEEDERS = ["ieee13", "synthetic:20:0", "synthetic:20:2", "synthetic:20:9"]


def mixed(count, seed=7):
    return generate_mixed_scenarios(FEEDERS, count, seed=seed)


class TestSingleWorkerParity:
    def test_one_worker_fleet_matches_plain_engine_exactly(self):
        """A 1-worker fleet is the engine plus routing bookkeeping — same
        batches, same warm-start history, bit-identical objectives."""
        reqs_a = mixed(8)
        reqs_b = mixed(8)
        engine = ScenarioEngine(max_batch=4)
        direct = engine.serve(reqs_a)
        fleet = FleetFrontend(FleetConfig(n_workers=1, max_batch=4))
        routed = fleet.serve(reqs_b)
        assert [r.request_id for r in routed] == [r.request_id for r in direct]
        assert [r.status for r in routed] == [r.status for r in direct]
        assert [r.objective for r in routed] == [r.objective for r in direct]
        assert [r.iterations for r in routed] == [r.iterations for r in direct]


class TestAffinity:
    def test_every_topology_sticks_to_its_ring_owner(self):
        fleet = FleetFrontend(FleetConfig(n_workers=2, max_batch=4))
        reqs = mixed(12)
        responses = fleet.serve(reqs)
        assert all(r.status == STATUS_CONVERGED for r in responses)
        snap = fleet.snapshot()
        assert snap["fleet.accepted"] == 12
        assert "fleet.affinity_miss" not in snap  # counter never created
        # Each worker built plans only for the topologies it owns: 4
        # topologies split 2/2 (pinned by the routing goldens).
        for wid, worker in fleet.workers.items():
            owned = {
                r.topology_key()
                for r in reqs
                if fleet.ring.route(r.topology_key()) == wid
            }
            assert set(worker.engine.plans) == owned
            assert len(owned) == 2

    def test_warm_start_cache_stays_hot_per_worker(self):
        """Affinity means repeat scenarios warm-start on their worker."""
        fleet = FleetFrontend(FleetConfig(n_workers=2, max_batch=2))
        first = fleet.serve(mixed(4))
        again = fleet.serve(mixed(4))  # same seed -> same scenarios
        assert all(not r.warm_started for r in first)
        assert all(r.warm_started for r in again)


class TestSpillAndBackpressure:
    def test_full_worker_spills_to_next_preference(self):
        """With a queue bound of 1 per worker, a burst on one topology
        overflows its affinity worker and spills to the other instead of
        bouncing."""
        fleet = FleetFrontend(
            FleetConfig(n_workers=2, queue_size=1, max_batch=1)
        )
        reqs = [
            OPFRequest(request_id=f"b{i}", feeder="ieee13", load_scale=1 + 0.01 * i)
            for i in range(2)
        ]
        assert fleet.submit(reqs[0]) is None
        assert fleet.submit(reqs[1]) is None  # spilled, not rejected
        snap = fleet.snapshot()
        assert snap["fleet.spilled"] == 1
        assert snap["fleet.affinity_miss"] == 1
        responses = fleet.run()
        assert {r.status for r in responses} == {STATUS_CONVERGED}

    def test_saturated_fleet_rejects_with_structured_backpressure(self):
        fleet = FleetFrontend(
            FleetConfig(n_workers=2, queue_size=1, max_batch=1)
        )
        reqs = [
            OPFRequest(request_id=f"b{i}", feeder="ieee13", load_scale=1 + 0.01 * i)
            for i in range(3)
        ]
        assert fleet.submit(reqs[0]) is None
        assert fleet.submit(reqs[1]) is None
        rejection = fleet.submit(reqs[2])
        assert rejection is not None and rejection.status == STATUS_REJECTED
        assert "saturated" in rejection.error
        assert fleet.snapshot()["fleet.rejected"] == 1
        # The queued work still completes.
        assert {r.status for r in fleet.run()} == {STATUS_CONVERGED}

    @pytest.mark.parametrize("mode", ["sim", "process"])
    def test_saturated_rejection_carries_the_batch_time_hint(self, mode):
        """Once a worker has served a batch, a saturated rejection says
        when to retry: the moving average of its batch wall time."""
        fleet = FleetFrontend(
            FleetConfig(n_workers=1, mode=mode, queue_size=1, max_batch=1)
        )
        with fleet:
            reqs = [
                OPFRequest(request_id=f"b{i}", feeder="ieee13", load_scale=1 + 0.01 * i)
                for i in range(3)
            ]
            assert fleet.submit(reqs[0]) is None
            assert [r.status for r in fleet.run()] == [STATUS_CONVERGED]
            assert fleet.submit(reqs[1]) is None
            rejection = fleet.submit(reqs[2])
            assert rejection is not None and rejection.status == STATUS_REJECTED
            retry_s = float(re.search(r"retry in ([0-9.]+)s", rejection.error).group(1))
            assert retry_s > 0.0
            assert [r.status for r in fleet.run()] == [STATUS_CONVERGED]

    def test_reused_request_id_cannot_strand_a_request(self):
        """The ledger counts request ids, so a reused id can fill a sim
        worker's engine queue below the ledger's bound; the engine's
        rejection of the next request is answered, not left outstanding."""
        fleet = FleetFrontend(FleetConfig(n_workers=1, queue_size=2, max_batch=1))
        x = OPFRequest(request_id="x", feeder="ieee13")
        for req in (x, x, OPFRequest(request_id="y", feeder="ieee13", load_scale=1.01)):
            assert fleet.submit(req) is None
        statuses = {r.request_id: r.status for r in fleet.run()}
        assert statuses == {"x": STATUS_CONVERGED, "y": STATUS_REJECTED}

    def test_saturated_error_is_structured(self):
        exc = FleetSaturatedError("abc123", -1.5, {"w0": 4, "w1": 4})
        assert exc.retry_after_s == 0.0  # clamped, like QueueFullError
        assert exc.queue_depths == {"w0": 4, "w1": 4}
        assert "abc123" in str(exc)

    def test_worker_queue_full_clamps_retry_hint(self):
        exc = WorkerQueueFull("w0", 4, 4, retry_after_s=-0.3)
        assert exc.retry_after_s == 0.0


class TestFailoverEquivalence:
    def test_kill_one_worker_loses_nothing_and_matches_fault_free(self):
        """The acceptance property: a seeded mid-run worker crash loses no
        accepted request, and every re-routed response is bit-identical
        to the fault-free run's (cold-start solves are placement-
        invariant)."""
        reqs = mixed(12)
        baseline = FleetFrontend(
            FleetConfig(n_workers=2, warm_start=False, max_batch=4)
        ).serve(reqs)
        assert {r.status for r in baseline} == {STATUS_CONVERGED}

        # w0 owns 2 of the 4 topologies -> 6 requests in batches of 3;
        # the crash point lands between its first and second batch.
        plan = FaultPlan(seed=1, faults=(WorkerCrash(worker="w0", after_served=3),))
        faulted_fleet = FleetFrontend(
            FleetConfig(n_workers=2, warm_start=False, max_batch=4),
            fault_plan=plan,
        )
        faulted = faulted_fleet.serve(reqs)

        base_by_id = {r.request_id: r for r in baseline}
        fault_by_id = {r.request_id: r for r in faulted}
        assert set(base_by_id) == set(fault_by_id)  # nothing lost
        for rid, base in base_by_id.items():
            assert fault_by_id[rid].status == base.status
            assert fault_by_id[rid].objective == base.objective  # exact

        snap = faulted_fleet.snapshot()
        assert snap["fleet.worker_deaths"] == 1
        assert snap["fleet.rerouted"] >= 1
        assert not faulted_fleet.workers["w0"].alive
        # The survivor served everything the dead worker left behind.
        assert snap["workers"]["w1"]["worker.served"] == 12 - 3

    def test_crash_before_serving_anything(self):
        """``after_served=0`` kills the worker on first dispatch: its
        whole queue fails over."""
        reqs = mixed(8)
        plan = FaultPlan(seed=1, faults=(WorkerCrash(worker="w1", after_served=0),))
        fleet = FleetFrontend(
            FleetConfig(n_workers=2, warm_start=False, max_batch=4),
            fault_plan=plan,
        )
        responses = fleet.serve(reqs)
        assert len(responses) == 8
        assert {r.status for r in responses} == {STATUS_CONVERGED}
        assert fleet.snapshot()["workers"]["w0"]["worker.served"] == 8

    def test_kill_worker_hook_mid_run(self):
        """`kill_worker` (the CLI/ops chaos path) triggers the same
        failover as a seeded crash."""
        reqs = mixed(8)
        fleet = FleetFrontend(FleetConfig(n_workers=2, warm_start=False, max_batch=2))
        rejections = [r for r in map(fleet.submit, reqs) if r is not None]
        assert not rejections
        fleet.poll()  # one batch per worker
        fleet.kill_worker("w0")
        responses = fleet.run()
        done = len(fleet.responses)
        assert done == 8 and {r.status for r in fleet.responses} == {STATUS_CONVERGED}
        assert fleet.snapshot()["fleet.worker_deaths"] == 1
        assert responses  # run() returned the post-kill completions

    def test_request_for_a_dead_owner_goes_to_a_survivor(self):
        """A dead worker is never routed to, even before its death has been
        handled: the request lands on the survivor and is answered there."""
        fleet = FleetFrontend(FleetConfig(n_workers=2, warm_start=False, max_batch=1))
        req = OPFRequest(request_id="x", feeder="ieee13")
        owner = fleet.ring.route(req.topology_key())
        (survivor,) = [w for w in fleet.workers if w != owner]
        fleet.kill_worker(owner)
        assert fleet.submit(req) is None
        assert list(fleet._outstanding[survivor]) == ["x"]
        assert not fleet._outstanding[owner]
        assert len(fleet.workers[owner].engine.queue) == 0
        (resp,) = fleet.run()
        assert resp.status == STATUS_CONVERGED
        workers = fleet.snapshot()["workers"]
        assert workers[owner]["worker.served"] == 0
        assert workers[survivor]["worker.served"] == 1

    def test_rerouted_requests_are_answered_in_submission_order(self):
        """A survivor takes over a dead worker's queue in its original
        order, not reversed."""
        fleet = FleetFrontend(FleetConfig(n_workers=2, warm_start=False, max_batch=1))
        reqs = [
            OPFRequest(request_id=f"r{i}", feeder="ieee13", load_scale=1 + 0.01 * i)
            for i in range(4)
        ]
        for r in reqs:
            assert fleet.submit(r) is None
        fleet.kill_worker(fleet.ring.route(reqs[0].topology_key()))
        assert [r.request_id for r in fleet.run()] == ["r0", "r1", "r2", "r3"]

    def test_total_fleet_loss_answers_honestly(self):
        reqs = mixed(4)
        plan = FaultPlan(
            seed=1,
            faults=(
                WorkerCrash(worker="w0", after_served=0),
                WorkerCrash(worker="w1", after_served=0),
            ),
        )
        fleet = FleetFrontend(
            FleetConfig(n_workers=2, warm_start=False, max_batch=2), fault_plan=plan
        )
        responses = fleet.serve(reqs)
        assert len(responses) == 4
        assert {r.status for r in responses} == {STATUS_ERROR}
        assert all("no survivors" in r.error for r in responses)


class TestBreakerRouting:
    def test_failing_worker_is_skipped_until_recovery(self):
        """Error responses trip the worker's breaker; routing then skips
        it (affinity traded for availability) until the recovery window
        passes on the injected clock."""
        clock_now = [0.0]
        fleet = FleetFrontend(
            FleetConfig(
                n_workers=2,
                max_batch=1,
                breaker_failure_threshold=1,
                breaker_recovery_s=30.0,
            ),
            clock=lambda: clock_now[0],
        )
        # ieee13's affinity worker under the 2-ring.
        owner = fleet.ring.route(
            OPFRequest(request_id="x", feeder="ieee13").topology_key()
        )
        other = next(w for w in fleet.workers if w != owner)
        bad = OPFRequest(
            request_id="bad", feeder="ieee13", load_multipliers={"no-such-load": 2.0}
        )
        assert fleet.submit(bad) is None
        (resp,) = fleet.run()
        assert resp.status == STATUS_ERROR
        assert fleet.breakers[owner].state == "open"

        good = OPFRequest(request_id="good", feeder="ieee13", load_scale=1.01)
        assert fleet.submit(good) is None
        assert "good" in fleet._outstanding[other]  # affinity skipped
        (resp,) = fleet.run()
        assert resp.status == STATUS_CONVERGED
        assert fleet.snapshot()["fleet.affinity_miss"] == 1

        clock_now[0] = 31.0  # recovery window passed -> half-open probe
        good2 = OPFRequest(request_id="good2", feeder="ieee13", load_scale=1.02)
        assert fleet.submit(good2) is None
        assert "good2" in fleet._outstanding[owner]
        (resp,) = fleet.run()
        assert resp.status == STATUS_CONVERGED
        assert fleet.breakers[owner].state == "closed"


class TestWorkerSpec:
    def test_guards(self):
        with pytest.raises(ValueError):
            WorkerSpec(worker_id="")
        with pytest.raises(ValueError):
            WorkerSpec(worker_id="w0", crash_after_served=-1)
        with pytest.raises(ValueError):
            FaultPlan(faults=(WorkerCrash(worker="w0", after_served=-2),))

    def test_worker_crash_after_lookup(self):
        plan = FaultPlan(
            seed=3,
            faults=(
                WorkerCrash(worker="w0", after_served=8),
                WorkerCrash(worker="w0", after_served=3),
            ),
        )
        assert plan.worker_crash_after("w0") == 3
        assert plan.worker_crash_after("w1") is None


class TestFleetConfig:
    def test_guards(self):
        with pytest.raises(ValueError):
            FleetConfig(n_workers=0)
        with pytest.raises(ValueError):
            FleetConfig(mode="threads")
        with pytest.raises(ValueError):
            FleetConfig(response_timeout_s=0)

    def test_worker_ids(self):
        assert FleetConfig(n_workers=3).worker_ids() == ["w0", "w1", "w2"]


class TestProcessMode:
    def test_process_fleet_serves_and_survives_a_crash(self):
        """Real multiprocessing workers: serve a mixed stream, then rerun
        with a seeded crash — a genuinely dead process (os._exit) — and
        get the identical result set."""
        reqs = mixed(8)
        config = FleetConfig(
            n_workers=2, mode="process", warm_start=False, max_batch=4,
            response_timeout_s=120.0,
        )
        with FleetFrontend(config) as fleet:
            baseline = fleet.serve(reqs)
        assert {r.status for r in baseline} == {STATUS_CONVERGED}

        plan = FaultPlan(seed=1, faults=(WorkerCrash(worker="w0", after_served=2),))
        with FleetFrontend(config, fault_plan=plan) as faulted_fleet:
            faulted = faulted_fleet.serve(reqs)
            deaths = faulted_fleet.snapshot()["fleet.worker_deaths"]
        assert deaths == 1
        base_by_id = {r.request_id: r.objective for r in baseline}
        fault_by_id = {r.request_id: r.objective for r in faulted}
        assert base_by_id == fault_by_id  # nothing lost, bit-identical
