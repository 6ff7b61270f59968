"""ADMM configuration shared by the solver-free and benchmark algorithms."""

from __future__ import annotations

import math
from dataclasses import dataclass

#: The float fields, each of which must be finite.
_FINITE_FIELDS = (
    "rho", "eps_rel", "relaxation", "balancing_mu", "balancing_tau", "qp_tol",
)


@dataclass
class ADMMConfig:
    """Hyper-parameters of Algorithm 1 and the benchmark ADMM.

    The defaults are the paper's experimental settings (Section V-A):
    ``rho = 100`` and ``eps_rel = 1e-3``.

    Attributes
    ----------
    rho:
        Augmented-Lagrangian penalty (rho > 0).
    eps_rel:
        Relative tolerance in the termination criterion (16).
    max_iter:
        Iteration budget; hitting it returns ``converged=False`` (or raises
        if ``raise_on_max_iter``).
    record_history:
        Store per-iteration primal/dual residuals (needed for Fig. 2).
    residual_balancing:
        Enable the rho-adaptation acceleration of [29] (ablation feature;
        off by default, the paper's experiments keep rho fixed).
    balancing_mu, balancing_tau:
        Balancing trigger ratio and multiplicative rho step.
    balancing_every:
        Only adapt rho every this many iterations.
    relaxation:
        Over-relaxation parameter alpha in (0, 2): the local/dual updates
        see ``alpha * B x + (1 - alpha) * z_prev`` instead of ``B x``.
        1.0 reproduces Algorithm 1 exactly; 1.5-1.8 is the classical
        acceleration range (an alternative to the paper's cited
        acceleration pointers, shipped as an ablation).
    divergence_guard:
        Raise :class:`~repro.utils.exceptions.DivergenceError` as soon as
        an iterate goes non-finite (NaN/inf) instead of silently burning
        the remaining budget.  The check is two scalar ``isfinite`` tests
        per iteration on residual norms already being computed, so the
        clean-path cost is negligible (benchmarked in
        ``bench_resilience_overhead.py``).
    qp_tol:
        (Benchmark only) KKT tolerance of the per-component QP solves.
    """

    rho: float = 100.0
    eps_rel: float = 1e-3
    max_iter: int = 100_000
    relaxation: float = 1.0
    divergence_guard: bool = True
    record_history: bool = True
    raise_on_max_iter: bool = False
    residual_balancing: bool = False
    balancing_mu: float = 10.0
    balancing_tau: float = 2.0
    balancing_every: int = 50
    qp_tol: float = 1e-9

    def __post_init__(self) -> None:
        for name in _FINITE_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.eps_rel <= 0:
            raise ValueError("eps_rel must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.balancing_mu <= 1 or self.balancing_tau <= 1:
            raise ValueError("balancing parameters must exceed 1")
        if not 0.0 < self.relaxation < 2.0:
            raise ValueError("relaxation must lie in (0, 2)")
