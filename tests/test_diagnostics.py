"""Tests for convergence diagnostics."""

import numpy as np
import pytest

from repro.core import ADMMConfig, SolverFreeADMM
from repro.core.diagnostics import (
    consensus_gaps_by_kind,
    convergence_report,
    is_stalled,
    residual_tail_slope,
)


class TestKindGaps:
    def test_covers_all_copies(self, ieee13_dec, ieee13_solution):
        gaps = consensus_gaps_by_kind(ieee13_dec, ieee13_solution)
        assert sum(g.n_copies for g in gaps) == ieee13_dec.n_local
        kinds = {g.kind for g in gaps}
        assert "w" in kinds and "pf" in kinds

    def test_gap_statistics_consistent(self, ieee13_dec, ieee13_solution):
        for g in consensus_gaps_by_kind(ieee13_dec, ieee13_solution):
            assert 0.0 <= g.rms_gap <= g.max_gap + 1e-15

    def test_converged_gaps_small(self, ieee13_dec, ieee13_solution):
        gaps = consensus_gaps_by_kind(ieee13_dec, ieee13_solution)
        assert max(g.max_gap for g in gaps) < 1e-2


class TestTailSlope:
    def test_decaying_trace_negative(self):
        trace = np.exp(-0.01 * np.arange(500))
        assert residual_tail_slope(trace) < -0.005

    def test_flat_trace_zero(self):
        assert residual_tail_slope(np.ones(500)) == pytest.approx(0.0, abs=1e-12)

    def test_short_trace_safe(self):
        assert residual_tail_slope([1.0]) == 0.0
        assert residual_tail_slope([]) == 0.0

    def test_zeros_ignored(self):
        trace = [0.0] * 50 + [1.0, 0.5, 0.25, 0.125]
        assert residual_tail_slope(trace) < 0


class TestStall:
    def test_converged_run_not_stalled_midway(self, ieee13_dec):
        res = SolverFreeADMM(ieee13_dec, ADMMConfig(max_iter=500)).solve()
        # Early in the run the residuals are still falling.
        assert not is_stalled(res, window=400)

    def test_requires_history(self, ieee13_dec):
        res = SolverFreeADMM(
            ieee13_dec, ADMMConfig(max_iter=5, record_history=False)
        ).solve()
        with pytest.raises(ValueError, match="record_history"):
            is_stalled(res)


class TestReport:
    def test_fields(self, ieee13_dec, ieee13_solution):
        report = convergence_report(ieee13_dec, ieee13_solution)
        assert report["converged"] is True
        assert report["bound_violation"] == 0.0
        assert "max" in report["worst_consensus_kind"]
        assert isinstance(report["stalled"], bool)

    def test_socp_report_has_the_lp_keys(self, ieee13_net, ieee13_dec, ieee13_solution):
        from repro.methods import solve_with_method

        problem, result = solve_with_method(
            ieee13_net, "socp", ADMMConfig(max_iter=300)
        )
        report = convergence_report(problem.dec, result)
        assert report.keys() == convergence_report(ieee13_dec, ieee13_solution).keys()
        assert report["equality_violation"] == problem.conic.equality_violation(result.x)
        assert report["worst_consensus_kind"].split()[0] in {"w", "pf", "qf", "le", "pg", "qg"}
        assert isinstance(report["stalled"], bool)
