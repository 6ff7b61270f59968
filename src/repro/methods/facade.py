"""The `Method` enum and the unified solver facade.

One entry point for every rung of the fidelity ladder:

* ``linearized`` — the paper's Algorithm 1 (:class:`~repro.core.
  solver_free.SolverFreeADMM`) on the linearized LP (7),
* ``qp`` — the solver-based baseline (:class:`~repro.core.baseline.
  BenchmarkADMM`) on the same LP, run in its closed-form ``projection``
  local mode by default (identical iterates to the interior-point mode,
  batchable),
* ``socp`` — the branch-flow second-order-cone relaxation
  (:class:`~repro.socp.solver.ConicSolverFreeADMM`), linear components
  through the same batched projections plus closed-form cone projections.

All three run on the shared :class:`~repro.core.loop.ADMMLoop`/Backend
protocol, so the GPU cost model prices them from the same component-size
vectors, and each validates against a HiGHS reference
(:func:`repro.reference.solve_reference` for the LP rungs,
:func:`repro.methods.reference.solve_reference_socp` for the conic rung)
within its per-method tolerance tier.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.backend.policy import HOST_DTYPE
from repro.core import ADMMConfig, BenchmarkADMM, SolverFreeADMM
from repro.core.results import ADMMResult
from repro.decomposition import decompose
from repro.formulation import build_centralized_lp
from repro.gpu.costmodel import UpdateTimes, iteration_times_from_sizes
from repro.gpu.device import A100, DeviceSpec
from repro.methods.reference import solve_reference_socp
from repro.reference import solve_reference
from repro.socp.bfm import build_bfm_socp
from repro.socp.solver import ConicSolverFreeADMM, decompose_conic


class Method(enum.Enum):
    """Rungs of the fidelity ladder, lowest fidelity first."""

    LINEARIZED = "linearized"
    QP = "qp"
    SOCP = "socp"

    @classmethod
    def parse(cls, value) -> "Method":
        """Coerce a CLI/request string (or a Method) to the enum member."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value))
        except ValueError:
            choices = ", ".join(m.value for m in cls)
            raise ValueError(
                f"unknown method {value!r} (choose from {choices})"
            ) from None

    def __str__(self) -> str:  # argparse-friendly
        return self.value


@dataclass(frozen=True)
class MethodSpec:
    """Per-method defaults and the validation tolerance tier.

    ``gap_tol`` is the admissible relative objective gap against the
    method's *own* HiGHS reference when solved at the spec's default
    tolerance — the tiers tighten as fidelity rises, which is what makes
    the ladder a ladder (docs/METHODS.md).
    """

    method: Method
    model: str
    eps_rel: float
    max_iter: int
    rho: float
    gap_tol: float
    #: Extra keyword arguments of the model builder (socp only).
    build_kwargs: dict = field(default_factory=dict)

    def default_config(self, **overrides) -> ADMMConfig:
        base = {
            "rho": self.rho,
            "eps_rel": self.eps_rel,
            "max_iter": self.max_iter,
        }
        base.update(overrides)
        return ADMMConfig(**base)


#: The ladder.  eps tiers: the LP rungs share one model but the qp rung
#: runs an order of magnitude tighter; the conic rung runs tighter still
#: relative to its own reference, so the measured gaps order
#: socp <= qp <= linearized on the Table-5 feeders (BENCH_methods.json).
METHOD_SPECS: dict[Method, MethodSpec] = {
    Method.LINEARIZED: MethodSpec(
        method=Method.LINEARIZED,
        model="linearized LP (7), solver-free ADMM (Algorithm 1)",
        eps_rel=1e-3,
        max_iter=20_000,
        rho=100.0,
        gap_tol=5e-3,
    ),
    Method.QP: MethodSpec(
        method=Method.QP,
        model="linearized LP (7), component box-QPs (benchmark ADMM)",
        eps_rel=1e-4,
        max_iter=100_000,
        rho=100.0,
        gap_tol=1e-3,
    ),
    Method.SOCP: MethodSpec(
        method=Method.SOCP,
        model="branch-flow SOCP relaxation, solver-free conic ADMM",
        eps_rel=2e-5,
        max_iter=300_000,
        rho=100.0,
        gap_tol=5e-4,
        build_kwargs={"le_max": 10.0},
    ),
}


@dataclass
class MethodProblem:
    """One feeder's model built for one method.

    ``dec`` is the rung's decomposition: :class:`~repro.decomposition.
    DecomposedOPF` of ``lp`` on the LP rungs, the conic decomposition of
    ``conic`` on the conic rung — or a :class:`~repro.core.consensus.
    ScenarioStack` of same-topology scenarios of either (a serving batch).
    ``component_sizes`` is the width vector the GPU cost model prices
    (cone blocks are width-4 components).
    """

    method: Method
    network: object
    lp: object | None = None
    dec: object | None = None
    conic: object | None = None

    @property
    def conic_dec(self):
        """The conic rung's decomposition (``None`` on the LP rungs)."""
        return self.dec if self.method is Method.SOCP else None

    @property
    def component_sizes(self) -> np.ndarray:
        if self.method is Method.SOCP:
            linear = [c.n_vars for c in self.dec.linear]
            cones = [4] * self.dec.cone_cols.shape[0]
            return np.array(linear + cones, dtype=np.int64)
        return np.array(
            [c.n_vars for c in self.dec.components], dtype=np.int64
        )

    @property
    def n_vars(self) -> int:
        if self.method is Method.SOCP:
            return int(self.conic.n_vars)
        return int(self.lp.n_vars)

    def objective(self, x: np.ndarray) -> float:
        if self.method is Method.SOCP:
            return self.conic.objective(x)
        return float(np.asarray(self.lp.cost, dtype=HOST_DTYPE) @ x)


def build_method_problem(net, method) -> MethodProblem:
    """Build the model + decomposition of one ladder rung for a feeder."""
    method = Method.parse(method)
    if method is Method.SOCP:
        spec = METHOD_SPECS[method]
        conic = build_bfm_socp(net, **spec.build_kwargs)
        return MethodProblem(
            method=method, network=net, conic=conic, dec=decompose_conic(conic)
        )
    lp = build_centralized_lp(net)
    return MethodProblem(method=method, network=net, lp=lp, dec=decompose(lp))


def make_method_solver(
    problem: MethodProblem,
    config: ADMMConfig | None = None,
    tracer=None,
    backend=None,
    precision: str | None = None,
):
    """Instantiate the rung's strategy on the shared loop/backend protocol.

    With ``config=None`` the method's spec defaults apply (its tolerance
    tier); pass an explicit :class:`ADMMConfig` to override.  A problem
    whose ``dec`` is a :class:`~repro.core.consensus.ScenarioStack` gets
    the same strategy over all of the stack's scenarios.
    """
    spec = METHOD_SPECS[problem.method]
    cfg = config if config is not None else spec.default_config()
    common = {"tracer": tracer, "backend": backend, "precision": precision}
    if problem.method is Method.LINEARIZED:
        return SolverFreeADMM(problem.dec, cfg, **common)
    if problem.method is Method.QP:
        return BenchmarkADMM(problem.dec, cfg, local_mode="projection", **common)
    return ConicSolverFreeADMM(problem.dec, cfg, **common)


def solve_with_method(
    net,
    method,
    config: ADMMConfig | None = None,
    tracer=None,
    backend=None,
    precision: str | None = None,
) -> tuple[MethodProblem, ADMMResult]:
    """Build and solve one rung end to end; returns (problem, result)."""
    problem = build_method_problem(net, method)
    solver = make_method_solver(
        problem, config, tracer=tracer, backend=backend, precision=precision
    )
    return problem, solver.solve()


def reference_objective(problem: MethodProblem) -> float:
    """The rung's HiGHS ground truth (LP directly, SOCP by cutting planes)."""
    if problem.method is Method.SOCP:
        return solve_reference_socp(problem.conic).objective
    return solve_reference(problem.lp).objective


def modeled_iteration_times(
    problem: MethodProblem, device: DeviceSpec = A100
) -> UpdateTimes:
    """Price one ADMM iteration of the rung with the GPU cost model.

    Every rung is the same three-stage kernel stream — scatter-add/clip
    global step, batched local projections, saxpy dual step — so the
    model applies uniformly; the conic rung's cone projections enter as
    width-4 components (a handful of fused elementwise kernels, bounded
    above by the batched-matvec cost of a 4-wide block).
    """
    return iteration_times_from_sizes(
        device, problem.component_sizes, problem.n_vars
    )


@dataclass
class MethodReport:
    """One rung's measured accuracy and modeled cost on one feeder."""

    method: str
    converged: bool
    iterations: int
    objective: float
    reference_objective: float
    gap: float
    gap_tol: float
    within_tier: bool
    modeled_iteration_s: float
    modeled_solve_s: float
    cone_violation: float | None = None

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "converged": self.converged,
            "iterations": self.iterations,
            "objective": self.objective,
            "reference_objective": self.reference_objective,
            "gap": self.gap,
            "gap_tol": self.gap_tol,
            "within_tier": self.within_tier,
            "modeled_iteration_s": self.modeled_iteration_s,
            "modeled_solve_s": self.modeled_solve_s,
            "cone_violation": self.cone_violation,
        }


def method_report(
    net,
    methods=None,
    device: DeviceSpec = A100,
    backend=None,
    precision: str | None = None,
    metrics=None,
) -> list[MethodReport]:
    """Run the cross-method validation on one feeder.

    Solves each requested rung at its spec defaults, compares the
    objective against the rung's HiGHS reference, and prices the solve
    with the GPU cost model.  ``metrics`` (a
    :class:`~repro.telemetry.MetricsRegistry`) receives
    ``methods.validated`` / ``methods.tier_violations`` counters when
    provided.
    """
    wanted = [Method.parse(m) for m in (methods or list(Method))]
    reports = []
    for method in wanted:
        spec = METHOD_SPECS[method]
        problem, result = solve_with_method(
            net, method, backend=backend, precision=precision
        )
        ref = reference_objective(problem)
        x = np.asarray(result.x, dtype=HOST_DTYPE)
        obj = problem.objective(x)
        gap = abs(obj - ref) / max(abs(ref), 1e-12)
        times = modeled_iteration_times(problem, device)
        reports.append(
            MethodReport(
                method=method.value,
                converged=bool(result.converged),
                iterations=int(result.iterations),
                objective=obj,
                reference_objective=ref,
                gap=float(gap),
                gap_tol=spec.gap_tol,
                within_tier=bool(result.converged and gap <= spec.gap_tol),
                modeled_iteration_s=times.total_s,
                modeled_solve_s=times.total_s * int(result.iterations),
                cone_violation=(
                    problem.conic.cone_violation(x)
                    if method is Method.SOCP
                    else None
                ),
            )
        )
        if metrics is not None:
            metrics.counter("methods.validated").inc()
            if not reports[-1].within_tier:
                metrics.counter("methods.tier_violations").inc()
    return reports
