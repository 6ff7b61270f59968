"""Tests for repro.resilience: fault plans, checkpoints, policies, and the
fault-tolerant distributed runner (chaos acceptance tests)."""

import numpy as np
import pytest

from repro.core import ADMMConfig, SolverFreeADMM
from repro.parallel import (
    CPU_CLUSTER_COMM,
    DistributedADMMRunner,
    assign_even,
    rank_partition,
    reassign_surviving,
)
from repro.resilience import (
    ANY_TARGET,
    CLOSED,
    HALF_OPEN,
    OPEN,
    CheckpointStore,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    MessageDelay,
    MessageDrop,
    NaNCorruption,
    RankCrash,
    RetryPolicy,
    StragglerSlowdown,
)


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError, match="factor"):
            FaultPlan(faults=(StragglerSlowdown(rank=1, factor=0.5),))
        with pytest.raises(ValueError, match="fraction"):
            FaultPlan(faults=(NaNCorruption(target="x", at_iteration=1, fraction=0.0),))

    def test_crash_queries(self):
        plan = FaultPlan(faults=(RankCrash(rank=2, at_iteration=40),))
        assert plan.crash_iteration(2) == 40
        assert plan.crash_iteration(1) is None
        assert plan.crashed_ranks() == {2}

    def test_chaos_generator_reproducible_and_spares_aggregator(self):
        plans = [FaultPlan.chaos(seed=s, n_ranks=4, horizon=100) for s in range(20)]
        again = [FaultPlan.chaos(seed=s, n_ranks=4, horizon=100) for s in range(20)]
        assert plans == again
        for plan in plans:
            assert 0 not in plan.crashed_ranks()
            for f in plan.of_type(StragglerSlowdown):
                assert f.rank != 0


class TestFaultInjector:
    def test_corruption_mask_is_deterministic(self):
        plan = FaultPlan(seed=9, faults=(NaNCorruption(target="t", at_iteration=3),))
        masks = []
        for _ in range(2):
            inj = FaultInjector(plan)
            inj.begin_iteration(3)
            v = np.zeros(40)
            assert inj.corrupt(v, "t")
            masks.append(np.isnan(v))
        np.testing.assert_array_equal(masks[0], masks[1])
        assert masks[0].sum() == 10  # fraction 0.25 of 40

    def test_corruption_scoped_to_iteration_attempt_and_target(self):
        plan = FaultPlan(faults=(NaNCorruption(target="t", at_iteration=3, attempt=0),))
        inj = FaultInjector(plan)
        v = np.zeros(8)
        inj.begin_iteration(2)
        assert not inj.corrupt(v, "t")
        inj.begin_iteration(3)
        assert not inj.corrupt(v, "other")
        inj.begin_attempt(1)
        inj.begin_iteration(3)
        assert not inj.corrupt(v, "t")  # retry attempt runs clean
        assert not np.isnan(v).any()

    def test_wildcard_target(self):
        plan = FaultPlan(faults=(NaNCorruption(target=ANY_TARGET, at_iteration=1),))
        inj = FaultInjector(plan)
        inj.begin_iteration(1)
        v = np.zeros(8)
        assert inj.corrupt(v, "whatever")
        assert np.isnan(v).any()

    def test_injected_counter_counts_specs_once(self):
        plan = FaultPlan(
            faults=(
                RankCrash(rank=1, at_iteration=2),
                StragglerSlowdown(rank=2, factor=3.0),
            )
        )
        inj = FaultInjector(plan)
        inj.begin_iteration(5)
        for _ in range(4):
            assert inj.crashed(1)
            assert inj.slowdown(2) == 3.0
        assert inj.injected == 2

    def test_message_faults(self):
        plan = FaultPlan(
            faults=(
                MessageDrop(src=0, dst=1, at_iteration=2),
                MessageDelay(src=0, dst=2, delay_s=0.5),
            )
        )
        inj = FaultInjector(plan)
        inj.begin_iteration(2)
        assert inj.message_fault(0, 1) == (True, 0.0)
        assert inj.message_fault(0, 2) == (False, 0.5)
        inj.begin_iteration(3)
        assert inj.message_fault(0, 1) == (False, 0.0)


class TestCheckpointStore:
    def test_cadence_and_ring(self):
        store = CheckpointStore(every=10, keep=2)
        z = np.arange(3.0)
        lam = np.zeros(3)
        for i in range(1, 31):
            store.maybe_save(i, z + i, lam, 100.0)
        assert store.saves == 3
        assert len(store) == 2  # ring kept only the newest two
        assert store.latest().iteration == 30

    def test_restore_counts_and_copies(self):
        store = CheckpointStore(every=1)
        z = np.arange(3.0)
        store.save(5, z, z, 1.0)
        z[:] = -1.0  # the checkpoint must not alias caller buffers
        ckpt = store.restore()
        np.testing.assert_array_equal(ckpt.z, [0.0, 1.0, 2.0])
        assert store.restores == 1

    def test_empty_restore_raises(self):
        with pytest.raises(RuntimeError, match="no checkpoint"):
            CheckpointStore().restore()

    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointStore(every=0)
        with pytest.raises(ValueError):
            CheckpointStore(keep=0)


class TestRetryPolicy:
    def test_deterministic_backoff(self):
        policy = RetryPolicy(max_retries=3, base_delay_s=0.1, seed=4)
        delays = [policy.delay(a) for a in (1, 2, 3)]
        assert delays == [policy.delay(a) for a in (1, 2, 3)]
        # Exponential growth dominates the +-10% jitter.
        assert delays[0] < delays[1] < delays[2]
        for a, d in zip((1, 2, 3), delays):
            raw = 0.1 * 2.0 ** (a - 1)
            assert 0.9 * raw <= d <= 1.1 * raw

    def test_zero_base_is_immediate(self):
        assert RetryPolicy().delay(1) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)


class TestCircuitBreaker:
    def make(self, **kw):
        self.now = 0.0
        kw.setdefault("failure_threshold", 2)
        kw.setdefault("recovery_s", 10.0)
        return CircuitBreaker(clock=lambda: self.now, **kw)

    def test_trips_after_threshold(self):
        b = self.make()
        assert b.allow()
        assert not b.record_failure()
        assert b.state == CLOSED
        assert b.record_failure()  # second consecutive failure trips
        assert b.state == OPEN
        assert not b.allow()
        assert b.retry_after_s() == pytest.approx(10.0)

    def test_half_open_probe_and_reopen(self):
        b = self.make()
        b.record_failure()
        b.record_failure()
        self.now = 10.5
        assert b.allow()  # window elapsed: half-open probe admitted
        assert b.state == HALF_OPEN
        b.record_failure()  # probe failed: straight back to open
        assert b.state == OPEN
        assert b.opened_count == 2

    def test_success_closes(self):
        b = self.make()
        b.record_failure()
        b.record_failure()
        self.now = 11.0
        assert b.allow()
        b.record_success()
        assert b.state == CLOSED
        assert b.consecutive_failures == 0
        assert b.allow()


class TestReassignment:
    def test_reassign_uses_survivors_evenly(self):
        owner = reassign_surviving(10, [0, 2, 3])
        assert set(np.unique(owner)) == {0, 2, 3}
        counts = np.bincount(owner, minlength=4)
        assert counts[1] == 0
        assert counts.max() - counts[[0, 2, 3]].min() <= 1

    def test_single_survivor(self):
        owner = reassign_surviving(5, [0])
        np.testing.assert_array_equal(owner, np.zeros(5, dtype=owner.dtype))

    def test_rank_partition_covers_everything(self):
        owner = assign_even(7, 3)
        offsets = np.arange(0, 8 * 4, 4)  # 7 components of width 4
        comps, slices = rank_partition(offsets, owner, 3)
        assert sorted(c for cs in comps for c in cs) == list(range(7))
        stacked = np.concatenate([s for s in slices if s.size])
        np.testing.assert_array_equal(np.sort(stacked), np.arange(28))


class TestFaultTolerantRunner:
    def test_clean_run_matches_plain_runner_exactly(self, small_dec):
        cfg = ADMMConfig(max_iter=80, record_history=True)
        plain = DistributedADMMRunner(small_dec, 3, CPU_CLUSTER_COMM, cfg).solve()
        ft = DistributedADMMRunner(
            small_dec, 3, CPU_CLUSTER_COMM, cfg, checkpoint_every=1
        ).solve()
        np.testing.assert_array_equal(ft.result.x, plain.result.x)
        np.testing.assert_array_equal(ft.result.z, plain.result.z)
        np.testing.assert_array_equal(ft.result.lam, plain.result.lam)
        assert not ft.failovers
        assert ft.metrics.snapshot()["fault.injected"] == 0

    def test_chaos_crash_and_straggler_bit_identical_recovery(self, ieee13_dec):
        """The acceptance scenario: rank 2 crashes at iteration 40 while
        rank 1 runs 10x slow.  After checkpoint recovery the trajectory
        must match the fault-free distributed run bit-for-bit (and the
        serial solver to float tolerance), with the failover visible in
        telemetry."""
        cfg = ADMMConfig(max_iter=120, record_history=True)
        # Runners pin numpy64; pin the serial reference for the same reason.
        serial = SolverFreeADMM(ieee13_dec, cfg, backend="numpy64").solve()
        plain = DistributedADMMRunner(ieee13_dec, 4, CPU_CLUSTER_COMM, cfg).solve()
        plan = FaultPlan(
            seed=7,
            faults=(
                RankCrash(rank=2, at_iteration=40),
                StragglerSlowdown(rank=1, factor=10.0, from_iteration=10),
            ),
        )
        run = DistributedADMMRunner(
            ieee13_dec, 4, CPU_CLUSTER_COMM, cfg, fault_plan=plan, checkpoint_every=25
        ).solve()
        # Bit-identical to the fault-free distributed trajectory.
        np.testing.assert_array_equal(run.result.x, plain.result.x)
        np.testing.assert_array_equal(run.result.z, plain.result.z)
        np.testing.assert_array_equal(run.result.lam, plain.result.lam)
        assert run.result.history.pres == plain.result.history.pres
        # And equal to serial within float tolerance (different batching).
        np.testing.assert_allclose(run.result.x, serial.x, atol=1e-12)
        # Failover bookkeeping: crash detected at 40, resumed from the
        # iteration-25 checkpoint, rank 2 excluded from then on.
        assert len(run.failovers) == 1
        event = run.failovers[0]
        assert event.rank == 2
        assert event.iteration == 40
        assert event.resumed_from == 25
        assert event.survivors == (0, 1, 3)
        assert run.restores == 1
        snap = run.metrics.snapshot()
        assert snap["rank.failover"] == 1
        assert snap["fault.injected"] == 2  # the crash and the straggler
        # The straggler costs virtual time: slower than the plain run.
        assert run.simulated_total_s > plain.simulated_total_s

    def test_chaos_run_is_reproducible(self, small_dec):
        cfg = ADMMConfig(max_iter=60)
        plan = FaultPlan(seed=1, faults=(RankCrash(rank=1, at_iteration=20),))

        def run():
            return DistributedADMMRunner(
                small_dec, 3, CPU_CLUSTER_COMM, cfg, fault_plan=plan, checkpoint_every=10
            ).solve()

        a, b = run(), run()
        np.testing.assert_array_equal(a.result.z, b.result.z)
        assert a.failovers == b.failovers

    def test_fault_injected_replay_is_bit_identical(self, small_dec):
        """R002 regression: a fault-injected run — iterates, residual
        history, failover bookkeeping — must replay bit-for-bit.  Any
        wall-clock read or unseeded RNG sneaking into the simulated
        numerics (what lint rule R002 guards statically) breaks this
        equality long before it would surface as flakiness.  (The
        timeline is exempt: virtual clocks advance by *measured* compute
        durations, which legitimately vary run to run.)
        """
        cfg = ADMMConfig(max_iter=80, record_history=True)
        plan = FaultPlan(
            seed=5,
            faults=(
                StragglerSlowdown(rank=2, factor=4.0, from_iteration=5, until_iteration=25),
                RankCrash(rank=1, at_iteration=30),
                MessageDrop(src=2, dst=0, at_iteration=12),
            ),
        )

        def run():
            return DistributedADMMRunner(
                small_dec, 3, CPU_CLUSTER_COMM, cfg, fault_plan=plan, checkpoint_every=10
            ).solve()

        a, b = run(), run()
        for name in ("x", "z", "lam"):
            np.testing.assert_array_equal(
                getattr(a.result, name), getattr(b.result, name)
            )
        assert a.result.objective == b.result.objective
        assert a.result.iterations == b.result.iterations
        assert a.result.history.pres == b.result.history.pres
        assert a.result.history.dres == b.result.history.dres
        assert a.failovers == b.failovers
        assert len(a.timeline.total_s) == len(b.timeline.total_s)

    def test_crash_recovery_converges(self, small_dec, small_ref):
        plan = FaultPlan(faults=(RankCrash(rank=2, at_iteration=30),))
        run = DistributedADMMRunner(
            small_dec,
            3,
            CPU_CLUSTER_COMM,
            ADMMConfig(max_iter=40000),
            fault_plan=plan,
            checkpoint_every=25,
        ).solve()
        assert run.result.converged
        assert small_ref.compare_objective(run.result.objective) < 2e-2
        assert len(run.failovers) == 1

    def test_stale_mode_beats_sync_under_straggler(self, small_dec):
        plan = FaultPlan(faults=(StragglerSlowdown(rank=1, factor=10.0),))
        cfg = ADMMConfig(max_iter=60, eps_rel=1e-12)

        def run(**kw):
            return DistributedADMMRunner(
                small_dec, 3, CPU_CLUSTER_COMM, cfg, fault_plan=plan, **kw
            ).solve(max_iter=60)

        sync = run()
        stale = run(staleness_bound=3)
        assert stale.stale_rounds > 0
        assert stale.simulated_total_s < sync.simulated_total_s
        snap = stale.metrics.snapshot()
        assert snap["resilience.stale_rounds"] == stale.stale_rounds

    def test_stale_mode_still_converges(self, small_dec, small_ref):
        """A transient straggler ridden out in stale-iterate mode: once the
        slowdown lifts, deferrals stop and the run still converges near the
        reference.  Deferral timing rides on *measured* compute charged to
        the virtual clocks, so the trajectory (and the eps_rel=1e-3 early
        stop) jitters between runs — hence the looser objective bound than
        the deterministic synchronous tests."""
        plan = FaultPlan(
            faults=(StragglerSlowdown(rank=1, factor=10.0, until_iteration=1000),)
        )
        run = DistributedADMMRunner(
            small_dec,
            3,
            CPU_CLUSTER_COMM,
            ADMMConfig(max_iter=40000),
            fault_plan=plan,
            staleness_bound=3,
        ).solve()
        assert run.result.converged
        assert small_ref.compare_objective(run.result.objective) < 8e-2

    def test_dropped_message_is_transient(self, small_dec):
        """A single dropped scatter message must not kill the run — the
        affected rank just reuses its stale slice for one round."""
        plan = FaultPlan(faults=(MessageDrop(src=0, dst=1, at_iteration=5),))
        run = DistributedADMMRunner(
            small_dec, 3, CPU_CLUSTER_COMM, ADMMConfig(max_iter=80), fault_plan=plan
        ).solve()
        assert run.stale_rounds >= 1
        assert not run.failovers

    def test_rejects_aggregator_crash(self, small_dec):
        plan = FaultPlan(faults=(RankCrash(rank=0, at_iteration=5),))
        with pytest.raises(ValueError, match="aggregator"):
            DistributedADMMRunner(
                small_dec, 3, CPU_CLUSTER_COMM, fault_plan=plan
            )

    def test_rejects_out_of_range_crash_rank(self, small_dec):
        plan = FaultPlan(faults=(RankCrash(rank=9, at_iteration=5),))
        with pytest.raises(ValueError, match="beyond"):
            DistributedADMMRunner(
                small_dec, 3, CPU_CLUSTER_COMM, fault_plan=plan
            )

    def test_rejects_extensions(self, small_dec):
        with pytest.raises(ValueError, match="plain Algorithm 1"):
            DistributedADMMRunner(
                small_dec, 2, CPU_CLUSTER_COMM, ADMMConfig(relaxation=1.5)
            )

    def test_rejects_bad_periods(self, small_dec):
        with pytest.raises(ValueError, match="checkpoint_every"):
            DistributedADMMRunner(small_dec, 3, CPU_CLUSTER_COMM, checkpoint_every=0)
        with pytest.raises(ValueError, match="staleness_bound"):
            DistributedADMMRunner(small_dec, 3, CPU_CLUSTER_COMM, staleness_bound=-1)

    def test_stale_crash_of_deferred_rank_fails_over_once(self, ieee13_dec):
        """A 50x straggler keeps rank 1's contribution deferred in stale
        mode, so its crash lands while a result is pending: the rank must
        be failed over exactly once."""
        plan = FaultPlan(
            faults=(
                StragglerSlowdown(rank=1, factor=50.0),
                RankCrash(rank=1, at_iteration=20),
            )
        )
        run = DistributedADMMRunner(
            ieee13_dec,
            4,
            CPU_CLUSTER_COMM,
            ADMMConfig(max_iter=80),
            fault_plan=plan,
            checkpoint_every=10,
            staleness_bound=3,
        ).solve()
        assert [e.rank for e in run.failovers] == [1]
        assert run.metrics.snapshot()["rank.failover"] == 1
        assert run.survivors == (0, 2, 3)

    def test_metrics_are_per_solve(self, ieee13_dec):
        plan = FaultPlan(faults=(RankCrash(rank=2, at_iteration=20),))
        runner = DistributedADMMRunner(
            ieee13_dec,
            4,
            CPU_CLUSTER_COMM,
            ADMMConfig(max_iter=60),
            fault_plan=plan,
            checkpoint_every=10,
        )
        first, second = runner.solve(), runner.solve()
        assert first.metrics.snapshot() == second.metrics.snapshot()
        for run in (first, second):
            snap = run.metrics.snapshot()
            assert snap["fault.injected"] == 1
            assert snap["rank.failover"] == len(run.failovers) == 1
            assert snap["resilience.restores"] == run.restores == 1
            assert snap["resilience.checkpoints"] == run.checkpoints_saved
            assert snap["resilience.stale_rounds"] == run.stale_rounds
