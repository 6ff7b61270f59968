"""The paper's benchmark: solver-based ADMM on model (8) (Section V-B).

Identical global and dual updates to Algorithm 1 — but the bound
constraints stay *inside* the component subproblems, so

* the global update is the **unclipped** minimizer ``x_hat`` of (10), and
* every local update must solve the box-constrained QP

      min 1/2 rho ||x_s||^2 + d_s^T x_s   s.t.  A_s x_s = b_s,
                                                lb_s <= x_s <= ub_s,

  which has no closed form and requires an optimization solver per
  component per iteration — the cost the paper's figures attribute to
  existing component-wise ADMM methods.

Two local execution modes:

* ``"interior_point"`` (default): the authentic path; calls the dense
  interior-point solver of :mod:`repro.qp` for every component, so measured
  wall time reflects real solver cost.
* ``"projection"``: a fast exact path that produces the *same iterate
  sequence*: every component's box-QP is the Euclidean projection of its
  target, computed for all components at once by the batched
  semismooth-Newton :class:`~repro.qp.projection.BoxAffineProjector`
  (stacked Newton passes per width bucket, a per-component cache of the
  Jacobian inverse, and the scalar :func:`~repro.qp.projection.
  project_box_affine` for any component a full step cannot finish).  The
  qp rung of :mod:`repro.methods`, its serving batches and the layered
  benchmark's ``solve-qp-ieee13`` run and time it; Table V counts the
  benchmark's iterations with it.

The iteration skeleton is :class:`repro.core.loop.ADMMLoop` and the
global/dual updates are the shared ones of :mod:`repro.core.consensus`
(unclipped); this class supplies the benchmark's local update.  The
per-component QP solves and projections are always fp64 on the host;
under an fp32 backend only the consensus state is reduced precision.  A
component whose target is non-finite gets a NaN local iterate without a
solver call, so the loop's divergence guard raises.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import ADMMConfig
from repro.core.consensus import ConsensusADMM, ScenarioStack
from repro.decomposition.decomposed import DecomposedOPF
from repro.qp.interior_point import solve_qp_box_eq
from repro.qp.projection import BoxAffineProjector


class BenchmarkADMM(ConsensusADMM):
    """Solver-based component ADMM (the paper's comparison baseline).

    ``dec`` is the decomposed model, or a
    :class:`~repro.core.consensus.ScenarioStack` of same-topology scenarios
    of it whose ``local`` data are each component's reduced ``(A, b)``.
    """

    algorithm_name = "benchmark ADMM (solver-based)"
    # The baseline deliberately runs the plain algorithm: no
    # over-relaxation, no residual balancing.
    use_relaxation = False
    supports_balancing = False
    # Bounds live in the local box-QPs, not in the global step.
    clip_global = False

    def __init__(
        self,
        dec: DecomposedOPF | ScenarioStack,
        config: ADMMConfig | None = None,
        local_mode: str = "interior_point",
        tracer=None,
        backend=None,
        precision: str | None = None,
    ):
        if local_mode not in ("interior_point", "projection"):
            raise ValueError(f"unknown local_mode {local_mode!r}")
        super().__init__(dec, config, tracer, backend, precision)
        self.local_mode = local_mode
        stack = self.stack
        base = stack.base
        comps, offsets, local = stack.tiled(base.components)
        if local is None:
            local = [(comp.a, comp.b) for comp in comps]
        # Each scenario's component s sees that scenario's bounds gathered
        # through the shared column map.
        lbl = np.concatenate([lb[base.global_cols] for lb in stack.lb])
        ubl = np.concatenate([ub[base.global_cols] for ub in stack.ub])
        #: One box-constrained QP per stacked component: its slice of the
        #: stacked local vector, its reduced system and its local bounds.
        self.qps = []
        for j, (a, b) in enumerate(local):
            sl = slice(int(offsets[j]), int(offsets[j + 1]))
            self.qps.append((sl, a, b, lbl[sl], ubl[sl]))
        self._per_scenario = base.n_components
        #: The batched exact projections of ``projection`` mode.
        self.projector = (
            BoxAffineProjector(local, lbl, ubl) if local_mode == "projection" else None
        )

    # ------------------------------------------------------------------
    def local_update(self, bx, lam, rho, out=None, lam_rho=None):
        """Every component's box-QP at ``v = B x + lam / rho``
        (``lam_rho`` is ``lam / rho`` when the caller holds it).  The
        interior-point mode writes into ``out`` when given; the projection
        mode returns the projector's own fresh array."""
        if lam_rho is None:
            lam_rho = lam / self.rho_vectors(rho)[1]
        v = bx + lam_rho
        b = self.backend
        if self.projector is not None:
            return b.asarray(self.projector.project(b.to_numpy(v)))
        z = b.empty(self.n_local) if out is None else out
        rho_k = self.rho_k
        for s, (sl, a, bs, lb, ub) in enumerate(self.qps):
            v_s = v[sl]
            if not np.isfinite(v_s).all():
                z[sl] = np.nan
                continue
            rho_s = rho if rho_k is None else rho_k[s // self._per_scenario]
            z[sl] = solve_qp_box_eq(
                rho_s * np.eye(a.shape[1]), -rho_s * v_s, a, bs, lb, ub,
                tol=self.config.qp_tol,
            ).x
        return z

    def span_args(self) -> dict:
        return {**super().span_args(), "local_mode": self.local_mode}

    def _refinement_solver(self, backend) -> "BenchmarkADMM":
        return type(self)(
            self.dec, self.config, local_mode=self.local_mode,
            tracer=self.tracer, backend=backend,
        )

    # ------------------------------------------------------------------
    def measure_local_costs(self, repeats: int = 3, rho: float | None = None) -> np.ndarray:
        """Measured seconds of one authentic (interior-point) local solve per
        component — the benchmark's per-agent unit of work."""
        rho = self.config.rho if rho is None else rho
        rng = np.random.default_rng(0)
        costs = np.empty(len(self.qps))
        for s, (_, a, b, lb, ub) in enumerate(self.qps):
            n_s = a.shape[1]
            v = rng.standard_normal(n_s) * 0.1
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                solve_qp_box_eq(
                    rho * np.eye(n_s), -rho * v, a, b, lb, ub, tol=self.config.qp_tol
                )
                best = min(best, time.perf_counter() - t0)
            costs[s] = best
        return costs
