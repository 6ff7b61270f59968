"""The fidelity ladder: cross-method parity and method-aware serving.

Three contracts live here (docs/METHODS.md):

* **Parity tiers** — each rung, solved at its spec defaults, lands within
  its own tolerance tier against its HiGHS reference, and the measured
  gaps order ``socp <= qp <= linearized`` (higher fidelity, smaller gap).
* **Key compatibility** — ``method`` enters the request digests *only*
  when it is not the default ``linearized``, so every pre-ladder golden
  (routing assignments, topology keys, scenario digests) is unchanged.
* **Cache isolation** — plans and warm starts are keyed per
  ``(topology, method)``: a linearized warm start must never seed a
  conic solve.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.backend import default_backend
from repro.core import ADMMConfig
from repro.feeders import ieee13, ieee34
from repro.methods import (
    METHOD_SPECS,
    Method,
    build_method_problem,
    make_method_solver,
    method_report,
    modeled_iteration_times,
    reference_objective,
    solve_reference_socp,
)
from repro.serve import OPFRequest, ScenarioEngine, SolveOptions
from repro.telemetry import MetricsRegistry


@pytest.fixture(scope="module")
def ladder13():
    """The full cross-method validation on IEEE13 at spec defaults."""
    return method_report(ieee13(), metrics=MetricsRegistry())


class TestMethodEnum:
    def test_parse_accepts_values_and_members(self):
        assert Method.parse("socp") is Method.SOCP
        assert Method.parse(Method.QP) is Method.QP
        assert str(Method.LINEARIZED) == "linearized"

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown method"):
            Method.parse("newton-raphson")

    def test_ladder_order_is_fidelity_order(self):
        assert [m.value for m in Method] == ["linearized", "qp", "socp"]

    def test_every_rung_has_a_spec(self):
        for m in Method:
            spec = METHOD_SPECS[m]
            assert spec.method is m
            assert spec.gap_tol > 0
            cfg = spec.default_config()
            assert cfg.eps_rel == spec.eps_rel

    def test_tiers_tighten_with_fidelity(self):
        tols = [METHOD_SPECS[m].gap_tol for m in Method]
        assert tols == sorted(tols, reverse=True)


class TestParityIEEE13:
    def test_every_rung_within_its_tier(self, ladder13):
        assert [r.method for r in ladder13] == ["linearized", "qp", "socp"]
        for r in ladder13:
            assert r.converged, r.method
            assert r.within_tier, f"{r.method}: gap {r.gap:.3e} > {r.gap_tol:g}"

    def test_gap_orders_by_fidelity(self, ladder13):
        gaps = {r.method: r.gap for r in ladder13}
        assert gaps["socp"] <= gaps["qp"] <= gaps["linearized"]

    def test_socp_relaxation_is_near_tight(self, ladder13):
        socp = next(r for r in ladder13 if r.method == "socp")
        assert socp.cone_violation is not None
        assert socp.cone_violation < 1e-4
        for r in ladder13:
            if r.method != "socp":
                assert r.cone_violation is None

    def test_modeled_cost_rises_with_iterations(self, ladder13):
        # Same cost model, same feeder: per-iteration times are comparable,
        # so the modeled solve cost follows the iteration counts.
        by_iters = sorted(ladder13, key=lambda r: r.iterations)
        by_cost = sorted(ladder13, key=lambda r: r.modeled_solve_s)
        assert [r.method for r in by_iters] == [r.method for r in by_cost]
        for r in ladder13:
            assert r.modeled_iteration_s > 0

    def test_report_round_trips_through_json(self, ladder13):
        payload = json.loads(json.dumps([r.to_dict() for r in ladder13]))
        assert [p["method"] for p in payload] == ["linearized", "qp", "socp"]
        assert all(p["within_tier"] for p in payload)

    def test_qp_trajectory_is_pinned(self, ladder13):
        """The qp rung's spec-tier run of BENCH_methods.json: the batched
        projections keep the iteration count and the objective."""
        if default_backend().name != "numpy64":
            pytest.skip("numpy64 pin: a mixed-precision facade solve refines in fp64")
        qp = next(r for r in ladder13 if r.method == "qp")
        assert qp.iterations == 5430
        assert qp.objective == pytest.approx(0.702197196474521, rel=0, abs=1e-9)

    def test_socp_trajectory_is_pinned(self, ladder13):
        """The socp rung's spec-tier run: the in-place cone kernel keeps
        the iteration count and the objective."""
        if default_backend().name != "numpy64":
            pytest.skip("numpy64 pin: a mixed-precision facade solve refines in fp64")
        socp = next(r for r in ladder13 if r.method == "socp")
        assert socp.iterations == 34647
        assert socp.objective == pytest.approx(0.7038298887756984, rel=0, abs=1e-9)


class TestParityIEEE34:
    """The ladder generalizes beyond the feeder its tiers were tuned on."""

    def test_linearized_within_tier_at_tight_eps(self):
        prob = build_method_problem(ieee34(), "linearized")
        ref = reference_objective(prob)
        result = make_method_solver(
            prob, ADMMConfig(rho=100.0, eps_rel=1e-5, max_iter=200_000)
        ).solve()
        assert result.converged
        obj = prob.objective(np.asarray(result.x, dtype=np.float64))
        gap = abs(obj - ref) / abs(ref)
        assert gap <= METHOD_SPECS[Method.LINEARIZED].gap_tol

    def test_socp_within_tier_and_below_linearized(self):
        prob = build_method_problem(ieee34(), "socp")
        ref = reference_objective(prob)
        result = make_method_solver(
            prob, ADMMConfig(rho=100.0, eps_rel=1e-4, max_iter=300_000)
        ).solve()
        assert result.converged
        obj = prob.objective(np.asarray(result.x, dtype=np.float64))
        gap = abs(obj - ref) / abs(ref)
        assert gap <= METHOD_SPECS[Method.SOCP].gap_tol


class TestSOCPReference:
    def test_cutting_planes_feasible_and_below_tolerance(self):
        prob = build_method_problem(ieee13(), "socp")
        ref = solve_reference_socp(prob.conic, tol=1e-6)
        assert prob.conic.cone_violation(ref.x) <= 1e-6 * (1 + 1e-9)
        assert "cutting planes" in ref.status

    def test_reference_objective_dispatches_per_method(self):
        net = ieee13()
        lp_ref = reference_objective(build_method_problem(net, "linearized"))
        socp_ref = reference_objective(build_method_problem(net, "socp"))
        # The SOCP models losses the LP ignores: its optimum costs more.
        assert socp_ref > lp_ref


class TestCostModel:
    def test_socp_sizes_include_cone_blocks(self):
        prob = build_method_problem(ieee13(), "socp")
        sizes = prob.component_sizes
        n_cones = len(prob.conic.cones)
        assert (sizes[-n_cones:] == 4).all()
        assert sizes.sum() == prob.conic_dec.n_local
        times = modeled_iteration_times(prob)
        assert times.total_s > 0


class TestMethodKeys:
    """Digest back-compat: linearized is the default and leaves keys alone."""

    def test_linearized_topology_key_is_the_historical_digest(self):
        key = OPFRequest(request_id="r", feeder="ieee13").topology_key()
        assert key == hashlib.sha256(b"feeder:ieee13").hexdigest()[:16]
        assert key == "54c1e82a6c7547f7"  # pre-ladder pin — never change

    def test_method_field_defaults_to_linearized(self):
        r = OPFRequest(request_id="r")
        assert r.method == "linearized"
        with pytest.raises(ValueError, match="method"):
            OPFRequest(request_id="r", method="sdp")

    def test_methods_get_distinct_topology_keys(self):
        keys = {
            OPFRequest(request_id="r", method=m).topology_key()
            for m in ("linearized", "qp", "socp")
        }
        assert len(keys) == 3

    def test_scenario_key_separates_methods(self):
        kw = dict(request_id="r", load_scale=1.02)
        lin = OPFRequest(**kw)
        qp = OPFRequest(method="qp", **kw)
        assert lin.scenario_key() != qp.scenario_key()

    def test_method_round_trips_through_dict(self):
        r = OPFRequest(request_id="r", method="socp")
        again = OPFRequest.from_dict(r.to_dict())
        assert again.method == "socp"
        assert again.topology_key() == r.topology_key()


class TestServeAcrossMethods:
    @pytest.fixture(scope="class")
    def engine(self):
        eng = ScenarioEngine(max_batch=8)
        reqs = [
            OPFRequest(request_id=f"{m}-{i}", load_scale=1 + 0.01 * i, method=m)
            for m in ("linearized", "qp", "socp")
            for i in range(2)
        ]
        responses = eng.serve(reqs)
        return eng, {r.request_id: r for r in responses}

    def test_mixed_batch_converges_per_method(self, engine):
        _, by_id = engine
        assert all(r.status == "converged" for r in by_id.values())
        # The SOCP objective prices losses: strictly above the LP rungs'.
        assert by_id["socp-0"].objective > by_id["linearized-0"].objective

    def test_one_plan_per_topology_method_pair(self, engine):
        eng, _ = engine
        assert len(eng.plans) == 3
        assert sorted(p.method for p in eng.plans.values()) == [
            "linearized",
            "qp",
            "socp",
        ]

    def test_warm_starts_never_cross_methods(self):
        eng = ScenarioEngine(max_batch=4)
        kw = dict(feeder="ieee13", load_scale=1.02)
        # Prime the cache with a converged linearized solve.
        [lin] = eng.serve([OPFRequest(request_id="lin", **kw)])
        assert lin.status == "converged" and not lin.warm_started
        # The identical perturbation under socp must cold-start: the cache
        # is keyed by (topology, method) and linearized state cannot seed
        # a conic solve.
        [cold] = eng.serve([OPFRequest(request_id="socp-cold", method="socp", **kw)])
        assert cold.status == "converged" and not cold.warm_started
        # ... while a nearby follow-up under the *same* method warm-starts.
        [warm] = eng.serve(
            [
                OPFRequest(
                    request_id="socp-warm",
                    feeder="ieee13",
                    load_scale=1.021,
                    method="socp",
                )
            ]
        )
        assert warm.status == "converged" and warm.warm_started

    def test_batch_metrics_tagged_by_method(self, engine):
        eng, _ = engine
        snap = eng.metrics.registry.snapshot()
        for m in ("linearized", "qp", "socp"):
            assert snap.get(f"methods.batches_{m}", 0) >= 1

    def test_state_export_import_preserves_method(self, engine):
        eng, _ = engine
        state = eng.export_topology_state()
        fresh = ScenarioEngine(max_batch=8)
        fresh.import_topology_state(state)
        assert sorted(p.method for p in fresh.plans.values()) == [
            "linearized",
            "qp",
            "socp",
        ]
        # The re-warmed engine serves a known scenario without re-planning.
        resp = fresh.serve(
            [OPFRequest(request_id="again", load_scale=1.01, method="socp")]
        )
        assert resp[0].status == "converged"
        assert len(fresh.plans) == 3


class TestServingBatchOfOne:
    """A serving batch of one is an ordinary solve: the engine runs the
    rung's own strategy, so at the same rho / eps / budget it retraces the
    facade solve of the ladder exactly."""

    @pytest.mark.parametrize("method", list(Method))
    def test_matches_the_facade_solve(self, ladder13, method):
        if default_backend().name != "numpy64":
            pytest.skip("numpy64 pin: a mixed-precision facade solve refines in fp64")
        spec = METHOD_SPECS[method]
        engine = ScenarioEngine(max_batch=1, warm_start=False)
        [resp] = engine.serve([
            OPFRequest(
                request_id="one",
                method=method.value,
                options=SolveOptions(
                    rho=spec.rho, eps_rel=spec.eps_rel, max_iter=spec.max_iter,
                    polish=False,
                ),
            )
        ])
        [report] = [r for r in ladder13 if r.method == method.value]
        assert resp.status == "converged" and report.converged
        assert resp.iterations == report.iterations
        assert resp.objective == report.objective
