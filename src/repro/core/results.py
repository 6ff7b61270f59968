"""Result containers for the ADMM algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.formulation.variables import VarKey


@dataclass
class IterationHistory:
    """Per-iteration traces (primal/dual residuals and tolerances, rho)."""

    pres: list[float] = field(default_factory=list)
    dres: list[float] = field(default_factory=list)
    eps_prim: list[float] = field(default_factory=list)
    eps_dual: list[float] = field(default_factory=list)
    rho: list[float] = field(default_factory=list)

    def append(self, pres, dres, eps_prim, eps_dual, rho) -> None:
        self.pres.append(float(pres))
        self.dres.append(float(dres))
        self.eps_prim.append(float(eps_prim))
        self.eps_dual.append(float(eps_dual))
        self.rho.append(float(rho))

    def __len__(self) -> int:
        return len(self.pres)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "pres": np.asarray(self.pres),
            "dres": np.asarray(self.dres),
            "eps_prim": np.asarray(self.eps_prim),
            "eps_dual": np.asarray(self.eps_dual),
            "rho": np.asarray(self.rho),
        }


@dataclass
class ADMMResult:
    """Outcome of one distributed solve.

    ``x`` is the global solution vector of (9); ``z`` and ``lam`` are the
    stacked local solutions and consensus duals (warm-start inputs for the
    next solve after a topology change).  ``timers`` holds accumulated wall
    time per update phase ("global", "local", "dual", "residual").

    ``primal_violation`` is reported whenever the solved problem's model
    (``strategy.dec.model``) reports one: on an LP the larger of ``||A x -
    b||_inf`` and the worst bound violation, on the conic relaxation the
    largest of those two and the worst cone violation.
    """

    x: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    objective: float
    iterations: int
    converged: bool
    pres: float
    dres: float
    history: IterationHistory | None
    timers: dict[str, float]
    algorithm: str
    primal_violation: float | None = None

    def value(self, var_index, key: VarKey) -> float:
        """Value of one named variable in the global solution."""
        return float(self.x[var_index.index(key)])

    @property
    def total_time(self) -> float:
        return float(sum(self.timers.values()))

    def summary(self) -> str:
        status = "converged" if self.converged else "NOT converged"
        return (
            f"{self.algorithm}: {status} in {self.iterations} iterations, "
            f"objective {self.objective:.6f}, pres {self.pres:.3e}, "
            f"dres {self.dres:.3e}, wall {self.total_time:.3f}s"
        )
