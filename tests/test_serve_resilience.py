"""Hardened-serving tests: divergence retry/degrade, circuit breaker,
deadlines, and structured backpressure (docs/RESILIENCE.md)."""

import time

import numpy as np
import pytest

from repro.reference import solve_reference
from repro.resilience import (
    ANY_TARGET,
    FaultPlan,
    NaNCorruption,
    ResilienceConfig,
    RetryPolicy,
)
from repro.serve import (
    STATUS_CONVERGED,
    STATUS_ERROR,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    BoundedRequestQueue,
    OPFRequest,
    QueueFullError,
    ScenarioEngine,
    SolveOptions,
)


def reqs(*scales, **kw):
    return [
        OPFRequest(request_id=f"s{i}", load_scale=s, **kw)
        for i, s in enumerate(scales)
    ]


class TestRetryIsolation:
    def test_corrupted_scenario_retries_clean_without_poisoning_batchmates(self):
        """A NaN-corrupted scenario is retried alone and converges; its
        batch-mates' objectives are bit-identical to a fault-free run."""
        plan = FaultPlan(
            seed=3, faults=(NaNCorruption(target="s1", at_iteration=5, attempt=0),)
        )
        chaos = ScenarioEngine(max_batch=4, fault_plan=plan)
        clean = ScenarioEngine(max_batch=4)
        paper = SolveOptions(polish=False)
        chaos_resp = {
            r.request_id: r for r in chaos.serve(reqs(1.0, 1.03, 1.06, options=paper))
        }
        clean_resp = {
            r.request_id: r for r in clean.serve(reqs(1.0, 1.03, 1.06, options=paper))
        }

        poisoned = chaos_resp["s1"]
        assert poisoned.status == STATUS_CONVERGED
        assert poisoned.attempts == 2  # one clean retry after the corruption
        assert not poisoned.degraded
        for rid in ("s0", "s2"):  # batch-mates: untouched, exactly equal
            assert chaos_resp[rid].status == STATUS_CONVERGED
            assert chaos_resp[rid].objective == clean_resp[rid].objective
            assert chaos_resp[rid].iterations == clean_resp[rid].iterations
            assert chaos_resp[rid].attempts == 1

        snap = chaos.snapshot()
        assert snap["divergent"] == 1
        assert snap["retries"] == 1
        assert snap["degraded"] == 0
        assert chaos.injector.injected == 1

    def test_retry_counter_matches_policy(self):
        """Corruption on attempts 0 and 1 costs two retries before the
        attempt-2 solve runs clean."""
        plan = FaultPlan(
            faults=(
                NaNCorruption(target="s0", at_iteration=1, attempt=0),
                NaNCorruption(target="s0", at_iteration=1, attempt=1),
            )
        )
        engine = ScenarioEngine(
            max_batch=2,
            fault_plan=plan,
            resilience=ResilienceConfig(retry=RetryPolicy(max_retries=2)),
        )
        resp = engine.serve(reqs(1.0))[0]
        assert resp.status == STATUS_CONVERGED
        assert resp.attempts == 3
        assert engine.metrics.retries == 2


class TestGracefulDegradation:
    def make_engine(self, max_retries=1, degrade=True, threshold=5):
        # Corrupt every attempt at iteration 1: retries can never succeed.
        plan = FaultPlan(
            faults=tuple(
                NaNCorruption(target="s0", at_iteration=1, attempt=a)
                for a in range(max_retries + 1)
            )
        )
        cfg = ResilienceConfig(
            retry=RetryPolicy(max_retries=max_retries),
            degrade_to_reference=degrade,
            breaker_failure_threshold=threshold,
        )
        return ScenarioEngine(max_batch=2, fault_plan=plan, resilience=cfg)

    def test_exhausted_retries_degrade_to_reference(self):
        engine = self.make_engine()
        resp = engine.serve(reqs(1.04))[0]
        assert resp.status == STATUS_CONVERGED
        assert resp.degraded
        assert resp.iterations == 0  # no ADMM iterations: reference LP
        assert resp.attempts == 2  # the first solve plus one doomed retry
        plan = next(iter(engine.plans.values()))
        req = OPFRequest(request_id="s0", load_scale=1.04)
        ref = solve_reference(plan.build_scenario(req).lp)
        assert resp.objective == pytest.approx(ref.objective, abs=1e-9)
        snap = engine.snapshot()
        assert snap["degraded"] == 1
        assert snap["converged"] == 1

    def test_degradation_disabled_errors_out(self):
        engine = self.make_engine(degrade=False)
        resp = engine.serve(reqs(1.0))[0]
        assert resp.status == STATUS_ERROR
        assert "diverged" in resp.error
        assert engine.metrics.degraded == 0
        assert engine.metrics.errors == 1

    def test_socp_scenario_degrades_to_cutting_plane_reference(self):
        """A conic scenario has no LP to fall back to; exhausted retries
        must degrade to the HiGHS cutting-plane SOCP solve of the same
        model (not error out, which was the pre-ladder behavior)."""
        from repro.methods.reference import solve_reference_socp

        plan_faults = FaultPlan(
            faults=tuple(
                NaNCorruption(target="s0", at_iteration=1, attempt=a)
                for a in range(2)
            )
        )
        cfg = ResilienceConfig(
            retry=RetryPolicy(max_retries=1), degrade_to_reference=True
        )
        engine = ScenarioEngine(
            max_batch=2, fault_plan=plan_faults, resilience=cfg
        )
        resp = engine.serve(reqs(1.04, method="socp"))[0]
        assert resp.status == STATUS_CONVERGED
        assert resp.degraded
        assert resp.iterations == 0
        assert resp.attempts == 2
        plan = next(iter(engine.plans.values()))
        scenario = plan.build_scenario(
            OPFRequest(request_id="s0", load_scale=1.04, method="socp")
        )
        assert scenario.lp is None and scenario.conic is not None
        ref = solve_reference_socp(scenario.conic)
        assert resp.objective == pytest.approx(ref.objective, rel=1e-6)
        assert engine.snapshot()["degraded"] == 1

    def test_socp_degradation_disabled_still_errors(self):
        plan_faults = FaultPlan(
            faults=tuple(
                NaNCorruption(target="s0", at_iteration=1, attempt=a)
                for a in range(2)
            )
        )
        cfg = ResilienceConfig(
            retry=RetryPolicy(max_retries=1), degrade_to_reference=False
        )
        engine = ScenarioEngine(
            max_batch=2, fault_plan=plan_faults, resilience=cfg
        )
        resp = engine.serve(reqs(1.0, method="socp"))[0]
        assert resp.status == STATUS_ERROR
        assert "diverged" in resp.error


class TestCircuitBreaker:
    def test_breaker_opens_and_fast_rejects(self):
        plan = FaultPlan(
            faults=tuple(
                NaNCorruption(target=ANY_TARGET, at_iteration=1, attempt=a)
                for a in range(2)
            )
        )
        cfg = ResilienceConfig(
            retry=RetryPolicy(max_retries=1),
            degrade_to_reference=False,
            breaker_failure_threshold=1,
            breaker_recovery_s=1000.0,
        )
        engine = ScenarioEngine(max_batch=2, fault_plan=plan, resilience=cfg)
        first = engine.serve(reqs(1.0))
        assert first[0].status == STATUS_ERROR  # trips the breaker
        assert engine.metrics.breaker_opened == 1

        second = engine.serve(reqs(1.0, 1.02))
        assert all(r.status == STATUS_REJECTED for r in second)
        assert all("circuit open for topology" in r.error for r in second)
        assert engine.metrics.breaker_rejections == 2
        snap = engine.snapshot()
        assert snap["breaker_opened"] == 1
        assert snap["breaker_rejections"] == 2

    def test_breaker_disabled_by_zero_threshold(self):
        cfg = ResilienceConfig(breaker_failure_threshold=0)
        engine = ScenarioEngine(max_batch=2, resilience=cfg)
        resp = engine.serve(reqs(1.0))[0]
        assert resp.status == STATUS_CONVERGED
        assert not engine.breakers


class TestDeadlines:
    def test_queue_expiry_times_out(self):
        engine = ScenarioEngine(max_batch=2)
        req = OPFRequest(
            request_id="late", options=SolveOptions(deadline_s=0.01)
        )
        assert engine.submit(req) is None
        time.sleep(0.03)
        resp = engine.run()[0]
        assert resp.status == STATUS_TIMEOUT
        assert "expired in queue" in resp.error
        assert engine.metrics.timeouts == 1

    def test_mid_solve_deadline_times_out(self):
        engine = ScenarioEngine(max_batch=2)
        req = OPFRequest(
            request_id="slow",
            options=SolveOptions(
                eps_rel=1e-12, max_iter=500_000, deadline_s=0.05, polish=False
            ),
        )
        resp = engine.serve([req])[0]
        assert resp.status == STATUS_TIMEOUT
        assert resp.objective is None
        assert "expired at iteration" in resp.error
        assert resp.iterations > 0

    def test_deadline_validation(self):
        with pytest.raises(ValueError, match="deadline_s"):
            SolveOptions(deadline_s=0.0)


class TestBackpressure:
    def test_queue_full_error_is_structured(self):
        queue = BoundedRequestQueue(maxsize=1)
        queue.retry_after_hint = 0.25
        queue.submit(OPFRequest(request_id="a"))
        with pytest.raises(QueueFullError) as exc_info:
            queue.submit(OPFRequest(request_id="b"))
        exc = exc_info.value
        assert exc.queue_depth == 1
        assert exc.maxsize == 1
        assert exc.retry_after_s == 0.25
        assert "retry in 0.250s" in str(exc)

    def test_rejection_response_carries_hint_and_gauges(self):
        engine = ScenarioEngine(max_batch=2, queue_size=2)
        assert engine.submit(OPFRequest(request_id="a")) is None
        assert engine.submit(OPFRequest(request_id="b")) is None
        resp = engine.submit(OPFRequest(request_id="c"))
        assert resp.status == STATUS_REJECTED
        assert "queue full (2/2 waiting)" in resp.error
        snap = engine.metrics.snapshot()
        assert snap["queue_depth"] == 2
        assert snap["rejected"] == 1

    def test_retry_after_hint_tracks_batch_latency(self):
        engine = ScenarioEngine(max_batch=2)
        assert engine.queue.retry_after_hint == 0.0
        engine.serve(reqs(1.0, 1.02))
        assert engine.queue.retry_after_hint > 0.0
        np.testing.assert_allclose(
            engine._batch_latency_ewma_s, engine.queue.retry_after_hint
        )

    def test_retry_after_is_never_negative(self):
        """Regression: a stale or miscomputed hint must clamp to 0.0, not
        tell callers to retry in the past."""
        exc = QueueFullError(queue_depth=4, maxsize=4, retry_after_s=-1.25)
        assert exc.retry_after_s == 0.0
        assert "retry in 0.000s" in str(exc)
        # A poisoned hint on the queue itself clamps at raise time too.
        queue = BoundedRequestQueue(maxsize=1)
        queue.retry_after_hint = -0.5
        queue.submit(OPFRequest(request_id="a"))
        with pytest.raises(QueueFullError) as exc_info:
            queue.submit(OPFRequest(request_id="b"))
        assert exc_info.value.retry_after_s == 0.0

    def test_zero_throughput_rejection_has_zero_hint(self):
        """Regression for the zero-throughput EWMA edge case: an engine
        that has served *no* batch yet has no latency estimate — its
        rejections must carry retry_after 0.0 ("no estimate"), and the
        EWMA must stay unset (0.0 is the sentinel, not a sample)."""
        engine = ScenarioEngine(max_batch=2, queue_size=1)
        assert engine._batch_latency_ewma_s == 0.0
        assert engine.submit(OPFRequest(request_id="a")) is None
        resp = engine.submit(OPFRequest(request_id="b"))
        assert resp.status == STATUS_REJECTED
        assert "retry in 0.000s" in resp.error
        snap = engine.metrics.snapshot()
        assert snap["backpressure_retry_after_s"] == 0.0


class TestFailedReference:
    def test_infeasible_reference_answers_only_its_own_request(self):
        """A scenario whose retries run out and whose reference LP is
        infeasible answers ``error``; its batchmate keeps its answer."""
        plan = FaultPlan(
            seed=1,
            faults=tuple(
                NaNCorruption(target="inf", at_iteration=2, attempt=a) for a in range(5)
            ),
        )
        engine = ScenarioEngine(fault_plan=plan)
        ok, bad = engine.serve([
            OPFRequest(request_id="ok"),
            OPFRequest(
                request_id="inf",
                gen_limits={"source": (None, 0.0)},
                options=SolveOptions(max_iter=64),
            ),
        ])
        assert ok.status == STATUS_CONVERGED
        assert bad.status == STATUS_ERROR
        assert "infeasible" in bad.error
        assert bad.attempts == 1 + engine.resilience.retry.max_retries
        assert not bad.degraded
        assert engine.metrics.degraded == 0
        breaker = next(iter(engine.breakers.values()))
        assert breaker.consecutive_failures == 1
