"""Multi-period distributed OPF with energy storage (the setting of the
paper's comparison baseline [15]), built on the same consensus machinery,
plus a receding-horizon DER scheduler on top of it."""

from repro.multiperiod.horizon import (
    HorizonResult,
    HorizonStep,
    MultiPeriodSolverFreeADMM,
    rolling_horizon,
)
from repro.multiperiod.model import (
    MultiPeriodProblem,
    Storage,
    build_multiperiod_lp,
)

__all__ = [
    "Storage",
    "MultiPeriodProblem",
    "build_multiperiod_lp",
    "MultiPeriodSolverFreeADMM",
    "HorizonStep",
    "HorizonResult",
    "rolling_horizon",
]
