"""Serving-layer tests for the stochastic and multi-period workloads."""

import math

import pytest

from repro.fleet import HashRing
from repro.serve import (
    STATUS_CONVERGED,
    STATUS_ERROR,
    MultiPeriodRequest,
    MultiPeriodResponse,
    OPFRequest,
    ScenarioEngine,
    SolveOptions,
    StochasticRequest,
    StochasticResponse,
)

#: Stochastic serving options (rho = 10, see docs/STOCHASTIC.md).
OPTS = SolveOptions(rho=10.0, eps_rel=1e-3, max_iter=40_000)


def _request(request_id="st0", **kw):
    kw.setdefault("feeder", "ieee13-der")
    kw.setdefault("n_scenarios", 6)
    kw.setdefault("seed", 9)
    kw.setdefault("der_setpoints", {"der671": 0.08, "der675": 0.05})
    kw.setdefault("options", OPTS)
    return StochasticRequest(request_id=request_id, **kw)


class TestStochasticRequest:
    def test_topology_key_matches_plain_opf(self):
        """Scenario-set requests must share the feeder's cached plan (and
        its fleet affinity worker) with ordinary OPF traffic."""
        st = _request()
        opf = OPFRequest(request_id="x", feeder="ieee13-der")
        assert st.topology_key() == opf.topology_key()
        ring = HashRing(["w0", "w1", "w2", "w3"])
        assert ring.route(st.topology_key()) == ring.route(opf.topology_key())

    def test_expansion_deterministic(self):
        eng = ScenarioEngine()
        net = eng.plan_for(_request()).net
        a = _request().expand(net)
        b = _request().expand(net)
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]
        assert len(a) == 6
        assert a[0].request_id == "st0/s0"

    def test_children_share_first_stage(self):
        eng = ScenarioEngine()
        net = eng.plan_for(_request()).net
        for child in _request().expand(net):
            assert child.der_setpoints == {"der671": 0.08, "der675": 0.05}

    def test_scenario_key_depends_on_seed(self):
        assert _request(seed=1).scenario_key() != _request(seed=2).scenario_key()

    def test_round_trip(self):
        req = _request()
        again = StochasticRequest.from_dict(req.to_dict())
        assert again == req

    def test_validation(self):
        with pytest.raises(ValueError, match="n_scenarios"):
            StochasticRequest(request_id="x", n_scenarios=0)
        with pytest.raises(ValueError, match="alpha"):
            StochasticRequest(request_id="x", alpha=1.5)


class TestStochasticServing:
    @pytest.fixture(scope="class")
    def served(self):
        eng = ScenarioEngine(max_batch=8, warm_start=False)
        [resp] = eng.serve([_request()])
        return eng, resp

    def test_converges_and_aggregates(self, served):
        _, resp = served
        assert isinstance(resp, StochasticResponse)
        assert resp.status == STATUS_CONVERGED
        assert resp.n_scenarios == 6
        assert len(resp.scenario_objectives) == 6
        assert resp.expected_cost is not None
        assert resp.cvar_cost >= resp.expected_cost - 1e-9
        assert resp.objective == pytest.approx(resp.cvar_cost)

    def test_metrics_recorded(self, served):
        eng, _ = served
        snap = eng.snapshot()
        assert snap["stochastic_requests"] == 1
        assert snap["stochastic_scenarios"] == 6

    def test_stacked_bit_identical_to_independent(self, served):
        """Acceptance criterion: the scenario-stacked solve returns
        bit-identical per-scenario objectives to serving the same
        scenarios as independent batch requests (numpy64)."""
        _, resp = served
        eng = ScenarioEngine(max_batch=8, warm_start=False)
        children = _request().expand(eng.plan_for(_request()).net)
        independent = eng.serve(children)
        assert [r.objective for r in independent] == resp.scenario_objectives

    def test_expansion_error_is_error_response(self):
        eng = ScenarioEngine(max_batch=8, warm_start=False)
        bad = _request(request_id="bad", der_setpoints={"nope": 0.1})
        [resp] = eng.serve([bad])
        assert resp.status == STATUS_ERROR
        assert "nope" in resp.error

    def test_mixed_with_plain_requests(self):
        eng = ScenarioEngine(max_batch=8, warm_start=False)
        plain = OPFRequest(request_id="p0", feeder="ieee13-der", options=OPTS)
        responses = eng.serve([plain, _request(request_id="st1", n_scenarios=4)])
        assert [r.request_id for r in responses] == ["p0", "st1"]
        assert all(r.status == STATUS_CONVERGED for r in responses)
        assert responses[1].n_scenarios == 4


class TestMultiPeriodServing:
    def test_schedule_served(self):
        eng = ScenarioEngine()
        req = MultiPeriodRequest(
            request_id="mp0",
            feeder="ieee13",
            load_profile=[0.7, 1.0, 1.2, 0.9],
            price_profile=[0.8, 1.0, 1.4, 0.9],
            storages=[
                {
                    "name": "bat675",
                    "bus": "675",
                    "p_ch_max": 0.05,
                    "p_dis_max": 0.05,
                    "energy_max": 0.2,
                    "soc0": 0.1,
                }
            ],
            window=3,
            options=OPTS,
        )
        [resp] = eng.serve([req])
        assert isinstance(resp, MultiPeriodResponse)
        assert resp.status == STATUS_CONVERGED
        assert resp.n_periods == 4
        assert len(resp.soc_trajectories["bat675"]) == 5
        assert resp.committed_cost == pytest.approx(resp.objective)
        assert eng.snapshot()["multiperiod_requests"] == 1

    def test_answer_reports_the_worst_window_violation(self):
        """A served schedule reports the largest primal violation of its
        committed window solves, the way a stochastic answer reports its
        children's largest."""
        from repro.core import ADMMConfig
        from repro.io.resolve import resolve_feeder
        from repro.multiperiod import rolling_horizon

        req = MultiPeriodRequest(
            request_id="mp3",
            feeder="ieee13",
            load_profile=[0.7, 1.0],
            storages=[{"name": "bat675", "bus": "675"}],
        )
        [resp] = ScenarioEngine().serve([req])
        assert resp.status == STATUS_CONVERGED and resp.iterations == 3881
        opts = req.options
        horizon = rolling_horizon(
            resolve_feeder(req.feeder),
            req.load_profile,
            req.price_profile,
            req.build_storages(),
            window=req.window,
            dt_hours=req.dt_hours,
            config=ADMMConfig(rho=opts.rho, eps_rel=opts.eps_rel, max_iter=opts.max_iter),
        )
        worst = max(step.primal_violation for step in horizon.steps)
        assert math.isfinite(resp.primal_violation)
        assert resp.primal_violation == worst
        assert not resp.certified and resp.gap is None

    def test_window_solves_traced_inside_the_request_span(self):
        from repro.telemetry import Tracer

        tracer = Tracer()
        eng = ScenarioEngine(tracer=tracer)
        req = MultiPeriodRequest(
            request_id="mp2",
            feeder="ieee13",
            load_profile=[0.7, 1.0, 1.2],
            storages=[{"name": "bat675", "bus": "675"}],
            window=2,
            options=SolveOptions(rho=10.0, max_iter=20),
        )
        [resp] = eng.serve([req])
        events = tracer.events()
        solves = [e for e in events if e.name == "admm.solve"]
        assert len(solves) == resp.n_periods == 3
        assert all(e.args["parent"] == "serve.multiperiod" for e in solves)
        locals_ = [e for e in events if e.name == "admm.local"]
        assert len(locals_) == resp.iterations == 60

    def test_bad_storage_is_error_response(self):
        eng = ScenarioEngine()
        req = MultiPeriodRequest(
            request_id="mp1",
            load_profile=[1.0, 1.0],
            storages=[{"name": "s", "bus": "zz"}],
        )
        [resp] = eng.serve([req])
        assert resp.status == STATUS_ERROR

    def test_validation(self):
        with pytest.raises(ValueError, match="load_profile"):
            MultiPeriodRequest(request_id="x", load_profile=[])
