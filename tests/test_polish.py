"""The certified active-set polish (docs/ALGORITHMS.md §11).

Contracts:

* **Certificate** — :func:`repro.formulation.certify_active_set` returns a
  point only when it is feasible and its Lagrangian bound closes the gap;
  on the point-feasible feeders it reproduces HiGHS, on ieee13-der and on
  infeasible scenarios it certifies nothing.
* **Serving** — linearized requests stop at the first certified attempt
  (iterations 1, 2, 4, ...) with the polished answer, counted and traced;
  ``SolveOptions(polish=False)`` keeps the paper's stopping rule, and
  failed attempts leave no trace in the answer.
* **Facade** — a serving batch of one answers with the certificate of
  the facade's iterate at the same iteration, bit for bit; every facade
  and simulated-MPI answer reports its primal violation.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decomposition import decompose
from repro.feeders import ieee13
from repro.formulation import build_centralized_lp, certify_active_set
from repro.io import resolve_feeder
from repro.io.export import result_to_dict
from repro.methods import (
    METHOD_SPECS,
    Method,
    build_method_problem,
    make_method_solver,
)
from repro.parallel import CPU_CLUSTER_COMM, DistributedADMMRunner
from repro.reference import solve_reference
from repro.serve import (
    STATUS_CONVERGED,
    STATUS_ITERATION_LIMIT,
    OPFRequest,
    OPFResponse,
    ScenarioEngine,
    SolveOptions,
    StochasticRequest,
    StochasticResponse,
)
from repro.telemetry import Tracer

IEEE13_LOADS = sorted(ieee13().loads)


def facade_solve(feeder, **overrides):
    """A linearized spec-tier solve through the methods facade."""
    problem = build_method_problem(resolve_feeder(feeder), Method.LINEARIZED)
    config = METHOD_SPECS[Method.LINEARIZED].default_config(**overrides)
    return problem, make_method_solver(problem, config).solve()


def serve_one(request, **engine_kwargs):
    engine = ScenarioEngine(max_batch=1, **engine_kwargs)
    [resp] = engine.serve([request])
    return engine, resp


def cached_entry(engine, request):
    """The warm-start cache entry the engine kept for ``request``."""
    scenario = engine.plan_for(request).build_scenario(request)
    entry, _ = engine.cache.lookup(request.topology_key(), scenario.signature)
    return entry


@pytest.fixture(scope="module")
def cold_engine():
    """One ieee13 plan shared by the Hypothesis examples; no warm starts,
    so every example solves from the same cold start."""
    return ScenarioEngine(max_batch=1, warm_start=False)


class TestCertificate:
    @pytest.mark.parametrize("feeder", ["ieee13", "ieee34"])
    def test_point_feasible_feeder_certifies_the_highs_optimum(self, feeder):
        lp = build_centralized_lp(resolve_feeder(feeder))
        ref = solve_reference(lp).objective
        cert = certify_active_set(lp, np.clip(lp.initial_point(), lp.lb, lp.ub))
        assert cert is not None
        assert cert.gap <= 1e-9
        assert abs(cert.objective - ref) <= 1e-9 * abs(ref)
        assert cert.bound <= ref + 1e-9 * abs(ref)
        assert lp.primal_violation(cert.x) <= 1e-9

    def test_ieee13_der_is_not_square_after_fixing(self):
        lp = build_centralized_lp(resolve_feeder("ieee13-der"))
        assert certify_active_set(lp, np.clip(lp.initial_point(), lp.lb, lp.ub)) is None

    def test_polished_point_depends_only_on_the_active_set(self):
        lp = build_centralized_lp(ieee13())
        rng = np.random.default_rng(0)
        x = np.clip(rng.normal(size=lp.n_vars), lp.lb, lp.ub)
        free = lp.lb != lp.ub
        x[free] = 0.5 * (np.clip(lp.lb, -1, 1) + np.clip(lp.ub, -1, 1))[free]
        a = certify_active_set(lp, x)
        b = certify_active_set(lp, np.clip(lp.initial_point(), lp.lb, lp.ub))
        assert a is not None and b is not None
        assert np.array_equal(a.x, b.x)
        assert a.objective == b.objective

    @settings(max_examples=12, deadline=None)
    @given(
        st.lists(
            st.floats(0.85, 1.15), min_size=len(IEEE13_LOADS), max_size=len(IEEE13_LOADS)
        )
    )
    def test_every_perturbed_ieee13_answer_is_certified(self, cold_engine, multipliers):
        """Under ±15% per-load draws every served answer is certified, is
        the HiGHS optimum, and its dual bound never exceeds it."""
        engine = cold_engine
        request = OPFRequest(
            request_id="h", load_multipliers=dict(zip(IEEE13_LOADS, multipliers))
        )
        [resp] = engine.serve([request])
        assert resp.status == STATUS_CONVERGED and resp.certified
        assert resp.gap <= 1e-9
        lp = engine.plan_for(request).build_scenario(request).lp
        opt = solve_reference(lp).objective
        assert abs(resp.objective - opt) <= 1e-9 * abs(opt)
        bound = resp.objective - resp.gap * max(1.0, abs(resp.objective))
        assert bound <= opt + 1e-9 * abs(opt)

    def test_infeasible_scenario_is_never_certified(self):
        """No generation leaves no feasible point: the square solve leaves
        the box, so the request runs out its budget as without polish."""
        engine, resp = serve_one(
            OPFRequest(
                request_id="dark",
                gen_limits={"source": (None, 0.0)},
                options=SolveOptions(max_iter=64),
            )
        )
        assert resp.status == STATUS_ITERATION_LIMIT
        assert resp.iterations == 64
        assert not resp.certified and resp.gap is None
        assert engine.snapshot()["polish_certified"] == 0


class TestServing:
    def test_four_requests_certify_at_iteration_one(self):
        tracer = Tracer()
        engine = ScenarioEngine(max_batch=4, tracer=tracer)
        resps = engine.serve(
            [OPFRequest(request_id=f"r{i}", load_scale=1 + 0.01 * i) for i in range(4)]
        )
        assert all(r.status == STATUS_CONVERGED and r.certified for r in resps)
        assert all(r.iterations == 1 and r.gap <= 1e-9 for r in resps)
        assert all(r.primal_violation <= 1e-9 for r in resps)
        snap = engine.snapshot()
        assert (snap["polish_attempts"], snap["polish_certified"]) == (4, 4)
        spans = [e for e in tracer.events() if e.name == "serve.polish"]
        assert [(s.args["scenarios"], s.args["certified"]) for s in spans] == [(4, 4)]

    def test_ieee13_der_attempts_at_powers_of_two(self):
        engine, resp = serve_one(
            OPFRequest(
                request_id="der", feeder="ieee13-der", options=SolveOptions(max_iter=64)
            )
        )
        assert resp.status == STATUS_ITERATION_LIMIT and not resp.certified
        assert resp.primal_violation is not None
        snap = engine.snapshot()
        assert (snap["polish_attempts"], snap["polish_certified"]) == (7, 0)

    def test_polish_off_keeps_the_paper_rule(self):
        engine, resp = serve_one(
            OPFRequest(request_id="paper", options=SolveOptions(polish=False))
        )
        assert resp.status == STATUS_CONVERGED and resp.iterations > 1
        assert not resp.certified and resp.gap is None
        assert resp.primal_violation > 0
        assert engine.snapshot()["polish_attempts"] == 0

    @pytest.mark.parametrize("method", ["qp", "socp"])
    def test_other_rungs_ignore_polish(self, method):
        engine, resp = serve_one(
            OPFRequest(request_id="m", method=method, options=SolveOptions(max_iter=8))
        )
        assert resp.iterations == 8 and not resp.certified
        assert engine.snapshot()["polish_attempts"] == 0
        assert resp.primal_violation is not None and np.isfinite(resp.primal_violation)

    def test_numpy32_objective_is_bit_identical_to_numpy64(self):
        request = OPFRequest(request_id="p", load_scale=1.03)
        _, r64 = serve_one(request, backend="numpy64")
        _, r32 = serve_one(request, backend="numpy32")
        assert r64.certified and r32.certified
        assert r32.objective == r64.objective

    def test_degraded_answer_reports_the_reference_violation(self):
        from repro.resilience import (
            FaultPlan,
            NaNCorruption,
            ResilienceConfig,
            RetryPolicy,
        )

        plan = FaultPlan(
            faults=tuple(
                NaNCorruption(target="s0", at_iteration=1, attempt=a) for a in range(2)
            )
        )
        engine = ScenarioEngine(
            max_batch=1,
            fault_plan=plan,
            resilience=ResilienceConfig(retry=RetryPolicy(max_retries=1)),
        )
        [resp] = engine.serve([OPFRequest(request_id="s0")])
        assert resp.degraded and resp.status == STATUS_CONVERGED
        assert not resp.certified and resp.gap is None
        assert 0 <= resp.primal_violation <= 1e-7

    def test_polish_enters_the_signature_only_when_off(self):
        assert SolveOptions().solve_signature() == (100.0, 1e-3, 20_000)
        off = SolveOptions(polish=False)
        assert off.solve_signature() != SolveOptions().solve_signature()
        on = OPFRequest(request_id="a")
        assert OPFRequest(request_id="b", options=off).scenario_key() != on.scenario_key()
        assert OPFRequest.from_dict(
            {"request_id": "c", "options": {"polish": False}}
        ).options == off

    def test_polish_off_requests_warm_start_from_certified_entries(self):
        """A certified cache entry holds the exact x and z but an almost
        cold dual; a polish-off neighbour seeded from it still saves
        iterations over a cold start."""
        scales = (1.00, 1.02, 1.04, 1.06)
        engine = ScenarioEngine(max_batch=4)
        polished = engine.serve(
            [OPFRequest(request_id=f"on{i}", load_scale=s) for i, s in enumerate(scales)]
        )
        assert all(r.certified for r in polished)

        def paper_requests():
            return [
                OPFRequest(
                    request_id=f"off{i}",
                    load_scale=s + 0.005,
                    options=SolveOptions(polish=False),
                )
                for i, s in enumerate(scales)
            ]

        warm = engine.serve(paper_requests())
        cold = ScenarioEngine(max_batch=4, warm_start=False).serve(paper_requests())
        assert all(r.warm_started and r.status == STATUS_CONVERGED for r in warm)
        assert all(w.iterations < c.iterations for w, c in zip(warm, cold))

    def test_failed_attempts_leave_no_trace_on_ieee13_der(self):
        on = OPFRequest(request_id="der", feeder="ieee13-der")
        off = OPFRequest(
            request_id="der", feeder="ieee13-der", options=SolveOptions(polish=False)
        )
        engine_on, s_on = serve_one(on)
        engine_off, s_off = serve_one(off)
        assert not s_on.certified and s_on.gap is None
        assert s_on.iterations == s_off.iterations
        assert s_on.objective == s_off.objective
        assert np.array_equal(cached_entry(engine_on, on).x, cached_entry(engine_off, off).x)

    def test_certified_polish_wins_over_the_residual_test(self):
        """At a tolerance (16) meets at iteration 1, serving still answers
        with the certified point and reports the iterate's residuals."""
        _, paper = serve_one(
            OPFRequest(request_id="a", options=SolveOptions(eps_rel=10.0, polish=False))
        )
        _, polished = serve_one(
            OPFRequest(request_id="a", options=SolveOptions(eps_rel=10.0))
        )
        assert paper.iterations == polished.iterations == 1
        assert polished.certified and not paper.certified
        assert (polished.pres, polished.dres) == (paper.pres, paper.dres)
        assert polished.objective != paper.objective


class TestFacade:
    def test_batch_of_one_answers_with_the_facade_iterates_certificate(self):
        """The serving batch of one retraces the facade bit for bit, so its
        answer at iteration 1 is the certificate of the facade's
        iteration-1 iterate; the cache keeps the polished x, z = B x and
        the iterate's lam."""
        spec = METHOD_SPECS[Method.LINEARIZED]
        problem, result = facade_solve("ieee13", max_iter=1)
        cert = certify_active_set(problem.lp, result.x)
        assert cert is not None
        request = OPFRequest(
            request_id="one",
            options=SolveOptions(rho=spec.rho, eps_rel=spec.eps_rel, max_iter=spec.max_iter),
        )
        engine, resp = serve_one(request)
        assert resp.certified and resp.iterations == 1
        assert resp.objective == cert.objective
        assert resp.gap == cert.gap
        assert resp.primal_violation == problem.lp.primal_violation(cert.x)
        assert (resp.pres, resp.dres) == (result.pres, result.dres)
        entry = cached_entry(engine, request)
        assert np.array_equal(entry.x, cert.x)
        assert np.array_equal(entry.z, cert.x[engine.plan_for(request).dec.global_cols])
        assert np.array_equal(entry.lam, result.lam)

    def test_every_lp_answer_reports_its_primal_violation(self):
        problem, result = facade_solve("ieee13")
        assert result.primal_violation == problem.lp.primal_violation(result.x)
        assert result.primal_violation > 0
        assert result_to_dict(result)["primal_violation"] == result.primal_violation
        dec = decompose(build_centralized_lp(ieee13()))
        run = DistributedADMMRunner(dec, 2, CPU_CLUSTER_COMM).solve(max_iter=50)
        assert run.result.primal_violation == dec.lp.primal_violation(run.result.x)
        assert run.result.primal_violation > 0


class TestResponses:
    def test_stochastic_fold_with_one_uncertified_child_is_uncertified(self):
        request = StochasticRequest(request_id="st", n_scenarios=3)

        def child(i, certified, gap):
            return OPFResponse(
                request_id=f"st/s{i}",
                status=STATUS_CONVERGED,
                objective=1.0 + i,
                certified=certified,
                gap=gap,
                primal_violation=1e-12 * (i + 1),
            )

        all_certified = [child(i, True, 1e-16 * i) for i in range(3)]
        folded = StochasticResponse.aggregate(request, all_certified)
        assert folded.certified
        assert folded.gap == 2e-16
        assert folded.primal_violation == 3e-12
        one_short = all_certified[:2] + [child(2, False, None)]
        folded = StochasticResponse.aggregate(request, one_short)
        assert not folded.certified
        assert folded.gap is None
        assert folded.primal_violation == 3e-12

    def test_response_fields_round_trip(self):
        _, resp = serve_one(OPFRequest(request_id="rt"))
        d = resp.to_dict()
        assert (d["certified"], d["gap"], d["primal_violation"]) == (
            resp.certified, resp.gap, resp.primal_violation
        )
        assert OPFResponse(**d) == resp
        assert pickle.loads(pickle.dumps(resp)) == resp
