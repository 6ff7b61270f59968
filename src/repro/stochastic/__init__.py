"""Two-stage stochastic OPF over sampled load/PV uncertainty.

The scenario batch *is* the ADMM batch: all K scenarios' components run
as one stacked :class:`~repro.core.batch.BatchedLocalSolver` solve, with
first-stage DER setpoints coupled across scenarios by the consensus
constraint itself.  See docs/STOCHASTIC.md.
"""

from repro.stochastic.model import (
    OBJECTIVE_CVAR,
    OBJECTIVE_EXPECTED,
    StochasticProblem,
    build_stochastic_lp,
    default_first_stage,
    sample_cvar,
)
from repro.stochastic.sampler import (
    SAMPLE_DTYPE,
    ScenarioSampler,
    ScenarioSet,
    UncertaintyModel,
)
from repro.stochastic.solve import (
    StochasticSolution,
    StochasticSolverFreeADMM,
    VSSReport,
    evaluate_first_stage,
    solve_two_stage,
    value_of_stochastic_solution,
)

__all__ = [
    "SAMPLE_DTYPE",
    "UncertaintyModel",
    "ScenarioSampler",
    "ScenarioSet",
    "OBJECTIVE_EXPECTED",
    "OBJECTIVE_CVAR",
    "StochasticProblem",
    "build_stochastic_lp",
    "default_first_stage",
    "sample_cvar",
    "StochasticSolution",
    "StochasticSolverFreeADMM",
    "VSSReport",
    "evaluate_first_stage",
    "solve_two_stage",
    "value_of_stochastic_solution",
]
