"""Solving the multi-period problem with the consensus machinery.

The time-expanded problem is a plain equality-constrained LP with bounds,
so it is the degenerate (zero-cone) case of the conic consensus solver:
components are the support-groups of the rows — every period's buses and
lines, plus one *storage component per storage spanning all periods* —
each solved by the batched closed-form affine projection.
"""

from __future__ import annotations

from repro.multiperiod.model import MultiPeriodProblem
from repro.socp.solver import ConicDecomposition, ConicSolverFreeADMM, decompose_conic


def decompose_multiperiod(problem: MultiPeriodProblem) -> ConicDecomposition:
    """Support-grouped decomposition of the time-expanded LP."""
    return decompose_conic(problem)


class MultiPeriodSolverFreeADMM(ConicSolverFreeADMM):
    """Solver-free consensus ADMM over the multi-period components."""

    algorithm_name = "solver-free ADMM (multi-period with storage)"
