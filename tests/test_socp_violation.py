"""The socp rung's primal violation report (docs/METHODS.md).

Every socp answer reports ``primal_violation``: the largest of
``||A x - b||_inf`` over the linear rows, the worst bound violation and
the worst cone violation ``max(0, P^2 + Q^2 - 2 le w)``.  The cone term
is not optional: a spec-tier ieee13 answer meets its rows to about
1e-12 and misses its cones by about 1e-6.  Checked on the facade result,
its JSON export, served answers and a degraded answer.
"""

import numpy as np
import pytest

from repro.feeders import ieee13
from repro.formulation.centralized import bound_violation, equality_violation
from repro.io.export import result_to_dict
from repro.methods import (
    Method,
    build_method_problem,
    make_method_solver,
    solve_reference_socp,
)
from repro.serve import STATUS_CONVERGED, OPFRequest, ScenarioEngine, SolveOptions


def violation_parts(conic, x):
    """The rows', the bounds' and the cones' violations at ``x``."""
    return (
        equality_violation(*conic.linear_system(), x),
        bound_violation(x, conic.lb, conic.ub),
        conic.cone_violation(x),
    )


@pytest.fixture(scope="module")
def spec_socp():
    """The spec-tier ieee13 socp answer, in fp64 whatever the default."""
    problem = build_method_problem(ieee13(), Method.SOCP)
    return problem, make_method_solver(problem, backend="numpy64").solve()


class TestFacade:
    def test_report_is_the_largest_part(self, spec_socp):
        problem, result = spec_socp
        rows, bounds, cones = violation_parts(problem.conic, result.x)
        assert result.primal_violation == max(rows, bounds, cones)
        # The rows converge to rounding long before the cones do.
        assert rows < 1e-9 < cones == result.primal_violation < 1e-4

    def test_export_carries_it(self, spec_socp):
        _, result = spec_socp
        assert result_to_dict(result)["primal_violation"] == result.primal_violation

    def test_rows_and_bounds_count(self):
        conic = build_method_problem(ieee13(), Method.SOCP).conic
        x = conic.initial_point()
        rows, bounds, _ = violation_parts(conic, x)
        assert conic.primal_violation(x) == max(violation_parts(conic, x))
        assert rows > 0 and bounds == 0
        x[0] = conic.ub[0] + 5.0
        assert violation_parts(conic, x)[1] == pytest.approx(5.0)
        assert conic.primal_violation(x) >= 5.0


class TestServing:
    def test_converged_answer_reports_its_violation(self):
        """The served violation is the model's at the answer the engine
        caches as its warm start."""
        request = OPFRequest(
            request_id="s", method="socp", options=SolveOptions(eps_rel=1e-3)
        )
        engine = ScenarioEngine(max_batch=1)
        [resp] = engine.serve([request])
        assert resp.status == STATUS_CONVERGED
        scenario = engine.plan_for(request).build_scenario(request)
        entry, _ = engine.cache.lookup(request.topology_key(), scenario.signature)
        assert resp.primal_violation == scenario.conic.primal_violation(entry.x)

    def test_every_answer_of_a_stacked_batch_reports_one(self):
        engine = ScenarioEngine(max_batch=2)
        responses = engine.serve([
            OPFRequest(request_id=f"s{k}", method="socp", load_scale=scale,
                       options=SolveOptions(max_iter=20))
            for k, scale in enumerate((1.0, 1.05))
        ])
        assert [r.iterations for r in responses] == [20, 20]
        assert all(np.isfinite(r.primal_violation) for r in responses)

    def test_degraded_answer_reports_the_reference_violation(self):
        from repro.resilience import (
            FaultPlan,
            NaNCorruption,
            ResilienceConfig,
            RetryPolicy,
        )

        plan = FaultPlan(
            faults=tuple(
                NaNCorruption(target="c0", at_iteration=1, attempt=a) for a in range(2)
            )
        )
        engine = ScenarioEngine(
            max_batch=1,
            fault_plan=plan,
            resilience=ResilienceConfig(retry=RetryPolicy(max_retries=1)),
        )
        request = OPFRequest(request_id="c0", method="socp")
        [resp] = engine.serve([request])
        assert resp.degraded and resp.status == STATUS_CONVERGED
        conic = engine.plan_for(request).build_scenario(request).conic
        reference = solve_reference_socp(conic)
        assert resp.primal_violation == conic.primal_violation(reference.x)
        assert 0 < resp.primal_violation <= 1e-6
