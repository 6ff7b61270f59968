"""Tests for the two-stage stochastic OPF (repro.stochastic)."""

import numpy as np
import pytest

from repro.core import ADMMConfig
from repro.feeders import ieee13_der
from repro.formulation import build_centralized_lp
from repro.reference import solve_reference
from repro.utils.exceptions import FormulationError

from repro.stochastic import (
    SAMPLE_DTYPE,
    ScenarioSampler,
    UncertaintyModel,
    build_stochastic_lp,
    default_first_stage,
    sample_cvar,
    solve_two_stage,
    value_of_stochastic_solution,
)

#: The stochastic instances' penalty — rho = 100 (the paper's single-shot
#: default) stalls on the scenario-expanded LP; see docs/STOCHASTIC.md.
STOCH_CONFIG = ADMMConfig(rho=10.0, eps_rel=1e-3, max_iter=60_000)


@pytest.fixture(scope="module")
def der_net():
    return ieee13_der()


@pytest.fixture(scope="module")
def scenarios(der_net):
    sampler = ScenarioSampler.from_network(der_net, seed=11)
    return sampler.sample(8)


class TestSampler:
    def test_same_seed_bit_identical(self, der_net):
        a = ScenarioSampler.from_network(der_net, seed=3).sample(16)
        b = ScenarioSampler.from_network(der_net, seed=3).sample(16)
        assert np.array_equal(a.load_multipliers, b.load_multipliers)
        assert np.array_equal(a.pv_availability, b.pv_availability)
        assert np.array_equal(a.weights, b.weights)

    def test_different_seed_differs(self, der_net):
        a = ScenarioSampler.from_network(der_net, seed=3).sample(16)
        b = ScenarioSampler.from_network(der_net, seed=4).sample(16)
        assert not np.array_equal(a.load_multipliers, b.load_multipliers)

    def test_dtype_pinned_fp64(self, der_net):
        """Scenario data is problem statement, not compute: it stays fp64
        regardless of which backend precision later solves it."""
        assert SAMPLE_DTYPE == np.dtype("float64")
        scn = ScenarioSampler.from_network(der_net, seed=0).sample(4)
        assert scn.load_multipliers.dtype == np.float64
        assert scn.pv_availability.dtype == np.float64
        assert scn.weights.dtype == np.float64

    def test_dtype_survives_fp32_solve(self, der_net, scenarios):
        """A mixed/fp32 backend solve must not downcast the scenario set."""
        sol = solve_two_stage(
            der_net,
            scenarios,
            config=ADMMConfig(rho=10.0, eps_rel=1e-2, max_iter=2_000),
            backend="numpy32",
        )
        assert sol.problem.scenarios.load_multipliers.dtype == np.float64
        assert scenarios.load_multipliers.dtype == np.float64

    def test_antithetic_pairing(self):
        """Scenario 2j+1 is the mirrored draw of scenario 2j: the load
        multipliers' log-deviations negate pairwise."""
        sampler = ScenarioSampler(["l1", "l2"], seed=5, antithetic=True)
        scn = sampler.sample(8)
        logs = np.log(scn.load_multipliers) + 0.5 * scn.model.load_sigma**2
        assert np.allclose(logs[0::2], -logs[1::2])

    def test_common_random_numbers(self):
        """Per-unit substreams: adding a PV unit leaves every load's draw
        untouched (common-random-number variates across designs)."""
        base = ScenarioSampler(["l1", "l2"], pv_names=[], seed=7).sample(8)
        more = ScenarioSampler(["l1", "l2"], pv_names=["pv1"], seed=7).sample(8)
        assert np.array_equal(base.load_multipliers, more.load_multipliers)

    def test_mean_scenario(self, scenarios):
        mean = scenarios.mean()
        assert mean.n_scenarios == 1
        assert mean.load_multipliers[0] == pytest.approx(
            (scenarios.weights[:, None] * scenarios.load_multipliers).sum(axis=0)
        )

    def test_rejects_bad_count(self, der_net):
        with pytest.raises(ValueError, match="n_scenarios"):
            ScenarioSampler.from_network(der_net).sample(0)


class TestCVaR:
    def test_sample_cvar_tail_mean(self):
        costs = [1.0, 2.0, 3.0, 4.0]
        weights = [0.25] * 4
        assert sample_cvar(costs, weights, 0.75) == pytest.approx(4.0)
        assert sample_cvar(costs, weights, 0.5) == pytest.approx(3.5)

    def test_cvar_at_least_mean(self):
        rng = np.random.default_rng(0)
        costs = rng.random(32)
        weights = np.full(32, 1 / 32)
        assert sample_cvar(costs, weights, 0.9) >= costs.mean() - 1e-12


class TestTwoStage:
    def test_admm_matches_reference_expected(self, der_net, scenarios):
        sol = solve_two_stage(
            der_net, scenarios, objective="expected", config=STOCH_CONFIG
        )
        assert sol.converged
        ref = solve_reference(sol.problem)
        assert sol.objective == pytest.approx(ref.objective, rel=5e-3)

    def test_cvar_objective_at_least_expected(self, der_net, scenarios):
        """CVaR is the acceptance-criterion risk premium: the CVaR-optimal
        objective value can never undercut the expected-value optimum."""
        exp = solve_two_stage(
            der_net, scenarios, objective="expected", config=STOCH_CONFIG
        )
        cvar = solve_two_stage(
            der_net, scenarios, objective="cvar", config=STOCH_CONFIG
        )
        assert exp.converged and cvar.converged
        assert cvar.objective >= exp.objective - 1e-6
        # And on any single solution, CVaR of the cost distribution
        # dominates its mean.
        assert cvar.cvar_cost >= cvar.expected_cost - 1e-9

    def test_first_stage_shared_across_scenarios(self, der_net, scenarios):
        """Non-anticipativity: the first-stage variables appear once,
        unsuffixed, and land in every scenario's components."""
        prob = build_stochastic_lp(der_net, scenarios)
        vi = prob.var_index
        for name in prob.first_stage:
            phases = der_net.generators[name].phases
            for phi in phases:
                vi.index(("pg", name, phi))  # unsuffixed key exists
                with pytest.raises(KeyError):
                    vi.index(("pg", f"{name}@s0", phi))

    def test_fixed_first_stage_is_respected(self, der_net, scenarios):
        fix = {
            "der671": np.full(3, 0.05),
            "der675": np.full(3, 0.02),
        }
        prob = build_stochastic_lp(
            der_net, scenarios, objective="expected", fix_first_stage=fix
        )
        ref = solve_reference(prob)
        got = prob.first_stage_setpoints(ref.x)
        for name, want in fix.items():
            assert got[name] == pytest.approx(want, abs=1e-8)

    def test_vss_nonnegative_and_positive_here(self, der_net, scenarios):
        """The DER feeder is built as a newsvendor instance, so hedging
        over scenarios must strictly beat planning on the mean scenario."""
        report = value_of_stochastic_solution(der_net, scenarios)
        assert report.vss >= -1e-9
        assert report.vss > 1e-6

    def test_answer_reports_primal_violation(self, der_net, scenarios):
        sol = solve_two_stage(
            der_net, scenarios, config=ADMMConfig(rho=10.0, max_iter=200)
        )
        violation = sol.result.primal_violation
        assert np.isfinite(violation)
        assert violation == sol.problem.primal_violation(sol.result.x)

    def test_invalid_objective_rejected(self, der_net, scenarios):
        with pytest.raises(FormulationError, match="objective"):
            build_stochastic_lp(der_net, scenarios, objective="variance")

    def test_invalid_alpha_rejected(self, der_net, scenarios):
        with pytest.raises(FormulationError, match="alpha"):
            build_stochastic_lp(der_net, scenarios, alpha=1.0)


class TestScenarioBlocks:
    """Each scenario of the expanded LP is the single-period LP (7) of that
    scenario's network with ``@s<k>`` on every name, except the shared
    first-stage ``pg`` columns, which every scenario's rows hold."""

    @pytest.mark.parametrize("mode", ["expected", "cvar", "fixed"])
    @pytest.mark.parametrize("k_n", [3, 4])
    def test_scenario_block_is_the_scenario_lp(self, der_net, k_n, mode):
        scenarios = ScenarioSampler.from_network(
            der_net,
            model=UncertaintyModel(load_sigma=0.1, pv_sigma=0.15),
            seed=7,
            antithetic=k_n % 2 == 0,
        ).sample(k_n)
        fs = default_first_stage(der_net, scenarios.pv_names)
        fix = None
        if mode == "fixed":
            fix = {
                name: np.full(len(der_net.generators[name].phases), 0.01)
                for name in fs
            }
        prob = build_stochastic_lp(
            der_net,
            scenarios,
            alpha=0.9,
            objective="cvar" if mode == "cvar" else "expected",
            fix_first_stage=fix,
        )
        keys = prob.var_index.keys
        shared_keys = {
            ("pg", name, phi) for name in fs for phi in der_net.generators[name].phases
        }
        for key in shared_keys:
            i = prob.var_index.index(key)
            gen = der_net.generators[key[1]]
            assert prob.cost[i] == gen.cost
            if fix is not None:
                assert prob.lb[i] == prob.ub[i] == 0.01

        for k in range(k_n):
            scen_net = der_net.copy()
            for j, name in enumerate(scenarios.load_names):
                load = scen_net.loads[name]
                load.p_ref = load.p_ref * scenarios.load_multipliers[k, j]
                load.q_ref = load.q_ref * scenarios.load_multipliers[k, j]
            for j, name in enumerate(scenarios.pv_names):
                gen = scen_net.generators[name]
                gen.p_max = gen.p_max * scenarios.pv_availability[k, j]
            lp = build_centralized_lp(scen_net, validate=False)
            tag = f"@s{k}"

            def tagged(key):
                return key if key in shared_keys else (key[0], key[1] + tag, key[2])

            local = [j for j, key in enumerate(lp.var_index.keys) if key not in shared_keys]
            block = [i for i, key in enumerate(keys) if key[1].endswith(tag)]
            assert [keys[i] for i in block] == [tagged(lp.var_index.key_of(j)) for j in local]
            assert prob.lb[block].tobytes() == lp.lb[local].tobytes()
            assert prob.ub[block].tobytes() == lp.ub[local].tobytes()
            assert (
                prob.initial_point()[block].tobytes()
                == lp.initial_point()[local].tobytes()
            )
            weight = 0.0 if mode == "cvar" else scenarios.weights[k]
            for i, j in zip(block, local):
                key = keys[i]
                want = (
                    der_net.generators[key[1][: -len(tag)]].cost * weight
                    if key[0] == "pg" else lp.cost[j]
                )
                assert prob.cost[i] == want, key

            rows = [r for r in prob.rows if r.owner[1].endswith(tag)]
            got = [(list(r.coeffs.items()), r.rhs, r.owner, r.tag) for r in rows]
            want = [
                ([(tagged(key), c) for key, c in r.coeffs.items()],
                 r.rhs, (r.owner[0], r.owner[1] + tag), r.tag + tag)
                for r in lp.rows
            ]
            assert got == want
            assert shared_keys <= {key for r in rows for key in r.coeffs}
