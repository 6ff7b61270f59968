"""Failure-injection tests: the library must fail loudly and specifically
when fed inconsistent or degenerate problems, not produce silent garbage."""

import numpy as np
import pytest

from repro.core import ADMMConfig, BenchmarkADMM, SolverFreeADMM
from repro.core.batch import BatchedLocalSolver
from repro.decomposition import decompose
from repro.formulation import Row, build_centralized_lp
from repro.network import Bus, DistributionNetwork, Generator, Line, Load
from repro.utils.exceptions import (
    DecompositionError,
    DivergenceError,
    InfeasibleError,
)


def tiny_net():
    net = DistributionNetwork(name="tiny")
    net.add_bus(Bus("a", (1,), w_min=1.0, w_max=1.0))
    net.add_bus(Bus("b", (1,)))
    net.add_line(Line("ab", "a", "b", (1,), r=[[0.01]], x=[[0.02]]))
    net.add_generator(Generator("g", "a", (1,)))
    net.add_load(Load("l", "b", (1,), p_ref=0.1))
    net.substation = "a"
    return net


class TestInconsistentLocalSystems:
    def test_contradictory_rows_raise(self):
        """Two rows fixing the same variable to different values must be
        caught at decomposition time, not at solve time."""
        net = tiny_net()
        lp = build_centralized_lp(net)
        bad = Row({("w", "b", 1): 1.0}, 0.9, ("bus", "b"), tag="pin-low")
        worse = Row({("w", "b", 1): 1.0}, 1.1, ("bus", "b"), tag="pin-high")
        lp.rows.extend([bad, worse])
        with pytest.raises(InfeasibleError, match="inconsistent"):
            decompose(lp)

    def test_foreign_variable_in_row_raises(self):
        net = tiny_net()
        lp = build_centralized_lp(net)
        # A bus-b row referencing bus-a-only generator variables violates
        # the consensus structure.
        alien = Row({("pg", "g", 1): 1.0}, 0.0, ("bus", "b"), tag="alien")
        lp.rows.append(alien)
        with pytest.raises(DecompositionError, match="foreign"):
            decompose(lp)

    def test_unknown_owner_raises(self):
        net = tiny_net()
        lp = build_centralized_lp(net)
        lp.rows.append(Row({("w", "b", 1): 1.0}, 1.0, ("bus", "nope"), tag="lost"))
        with pytest.raises(DecompositionError, match="unknown owner"):
            decompose(lp)


class TestDegenerateSolves:
    def test_infeasible_bounds_admm_does_not_converge(self):
        """With an impossible voltage band the termination criterion (16)
        must not fire — ADMM reports non-convergence rather than a fake
        solution."""
        net = tiny_net()
        net.buses["b"].w_min[:] = 1.5
        net.buses["b"].w_max[:] = 1.6
        lp = build_centralized_lp(net)
        dec = decompose(lp)
        res = SolverFreeADMM(dec, ADMMConfig(max_iter=3000)).solve()
        assert not res.converged
        # The consensus gap betrays the infeasibility.
        assert res.pres > 1e-3

    def test_tiny_network_without_loads(self):
        net = DistributionNetwork(name="bare")
        net.add_bus(Bus("a", (1,), w_min=1.0, w_max=1.0))
        net.add_bus(Bus("b", (1,)))
        net.add_line(Line("ab", "a", "b", (1,), r=[[0.01]], x=[[0.02]]))
        net.add_generator(Generator("g", "a", (1,)))
        net.substation = "a"
        lp = build_centralized_lp(net)
        res = SolverFreeADMM(decompose(lp), ADMMConfig(max_iter=20000)).solve()
        assert res.converged
        # Nothing to serve: optimal generation is ~0.
        assert abs(res.objective) < 1e-3


class TestDivergenceGuard:
    """Non-finite iterates must raise DivergenceError immediately, with the
    best (last all-finite) state attached — never burn the budget on NaN."""

    def dec(self):
        return decompose(build_centralized_lp(tiny_net()))

    def test_nan_seed_raises_at_first_iteration(self):
        solver = SolverFreeADMM(self.dec(), ADMMConfig(max_iter=100))
        lam0 = np.full(solver.dec.n_local, np.nan)
        with pytest.raises(DivergenceError, match="non-finite iterate") as exc_info:
            solver.solve(lam0=lam0)
        err = exc_info.value
        assert err.iteration == 1
        assert err.result is None  # no finite state ever existed

    @staticmethod
    def poison(iteration, x, z, lam, res):
        """A callback that writes inf into the live lam at iteration 5."""
        if iteration == 5:
            lam[0] = np.inf

    def test_midway_corruption_carries_best_so_far(self):
        solver = SolverFreeADMM(self.dec(), ADMMConfig(max_iter=100, eps_rel=1e-12))
        with pytest.raises(DivergenceError) as exc_info:
            solver.solve(callback=self.poison)
        err = exc_info.value
        assert err.iteration == 6
        assert err.result is not None
        assert err.result.iterations == 5
        # The callback poisoned the live lam after the guard captured it;
        # the captured state must not see that write.
        assert np.isfinite(err.result.x).all()
        assert np.isfinite(err.result.z).all()
        assert np.isfinite(err.result.lam).all()
        assert not err.result.converged

    def test_timers_flushed_before_raise(self):
        """The loop writes its phase totals once per run, and also before
        the guard raises (a finished solve: test_solver_free.py)."""
        solver = SolverFreeADMM(self.dec(), ADMMConfig(max_iter=100, eps_rel=1e-12))
        with pytest.raises(DivergenceError) as exc_info:
            solver.solve(callback=self.poison)
        timers = exc_info.value.result.timers
        assert set(timers) == {"global", "local", "dual", "residual"}
        assert all(total > 0 for total in timers.values())

    def test_guard_disabled_runs_to_budget(self):
        cfg = ADMMConfig(max_iter=20, divergence_guard=False)
        solver = SolverFreeADMM(self.dec(), cfg)
        res = solver.solve(lam0=np.full(solver.dec.n_local, np.nan))
        assert not res.converged
        assert res.iterations == 20
        assert not np.isfinite(res.pres)

    def test_benchmark_admm_guard(self):
        solver = BenchmarkADMM(self.dec(), ADMMConfig(max_iter=100))
        lam0 = np.full(solver.dec.n_local, np.nan)
        with pytest.raises(DivergenceError, match="non-finite iterate") as exc_info:
            solver.solve(lam0=lam0)
        assert exc_info.value.iteration == 1

    @pytest.mark.parametrize("mode", ["projection", "interior_point"])
    def test_benchmark_admm_nan_seed_on_real_box_qps(self, ieee13_dec, mode):
        """On ieee13 every local step is a genuine box-QP: a NaN target must
        come back NaN without a Newton or interior-point attempt (which
        would raise QPSolverError), so the guard fires."""
        solver = BenchmarkADMM(ieee13_dec, ADMMConfig(max_iter=100), local_mode=mode)
        with pytest.raises(DivergenceError, match="non-finite iterate") as exc_info:
            solver.solve(lam0=np.full(solver.n_local, np.nan))
        assert exc_info.value.iteration == 1
        assert exc_info.value.result is None

    @pytest.mark.parametrize("mode", ["projection", "interior_point"])
    def test_benchmark_admm_midway_corruption_on_real_box_qps(self, ieee13_dec, mode):
        solver = BenchmarkADMM(
            ieee13_dec, ADMMConfig(max_iter=100, eps_rel=1e-12), local_mode=mode
        )
        with pytest.raises(DivergenceError) as exc_info:
            solver.solve(callback=self.poison)
        err = exc_info.value
        assert err.iteration == 6
        assert err.result.iterations == 5
        assert np.isfinite(err.result.x).all()
        assert np.isfinite(err.result.z).all()
        assert np.isfinite(err.result.lam).all()


class TestBatchDegeneracy:
    def test_wide_flat_component(self, rng):
        """A component with a single row over many variables (m << n)."""
        a = rng.standard_normal((1, 12))
        b = np.array([0.7])

        class Comp:
            n_vars = 12

        comp = Comp()
        comp.a = a
        comp.b = b
        solver = BatchedLocalSolver.from_parts([comp], np.array([0, 12]))
        v = rng.standard_normal(12)
        z = solver.solve(v)
        np.testing.assert_allclose(a @ z, b, atol=1e-10)

    def test_square_full_rank_component_is_point(self, rng):
        """m == n: the feasible set is a single point; the projection must
        return it regardless of the input."""
        a = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        x_star = rng.standard_normal(5)
        b = a @ x_star

        class Comp:
            n_vars = 5

        comp = Comp()
        comp.a = a
        comp.b = b
        solver = BatchedLocalSolver.from_parts([comp], np.array([0, 5]))
        for _ in range(3):
            z = solver.solve(rng.standard_normal(5))
            np.testing.assert_allclose(z, x_star, atol=1e-8)
