"""The paper's core contribution: solver-free ADMM (Algorithm 1).

One iteration consists of three closed-form stages over the stacked
consensus structure of Section IV-C:

* **global update** (13)/(18): a scatter-add of the local solutions and
  duals, a diagonal scaling by the copy counts ``diag(B^T B)``, and a clip
  to the global bounds — the *only* place the bound constraints (9d) live;
* **local update** (15): one batched affine projection per component
  (``repro.core.batch``), replacing the per-component QP solver of the
  benchmark with a matrix-vector product;
* **dual update** (12)/(19).

Termination follows the relative primal/dual criterion (16).  The
iteration skeleton itself lives in :class:`repro.core.loop.ADMMLoop`, and
the global and dual updates, ``solve`` and the refinement continuation
are shared with the other rungs in :mod:`repro.core.consensus`; this class
supplies Algorithm 1's local update and runs on any
:class:`repro.backend.Backend` — fp64 NumPy (default, bit-identical to
the historical implementation), fp32 with the automatic fp64-refinement
fallback, or CuPy.  Warm starting from a previous result is supported,
which the dynamic-topology examples rely on.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.batch import BatchedLocalSolver
from repro.core.config import ADMMConfig
from repro.core.consensus import ConsensusADMM, ScenarioStack
from repro.decomposition.decomposed import DecomposedOPF


class SolverFreeADMM(ConsensusADMM):
    """Algorithm 1 on a decomposed OPF model.

    Parameters
    ----------
    dec:
        The decomposed model (9), or a
        :class:`~repro.core.consensus.ScenarioStack` of same-topology
        scenarios of it (the serving engine's stacked batches).
    config:
        Hyper-parameters; defaults to the paper's settings.
    tracer:
        Optional :class:`repro.telemetry.Tracer`; when enabled, every
        iteration's global/local/dual/residual phases become spans (from
        the ``perf_counter`` stamps the phase timers take anyway).
    backend:
        Array-execution backend (instance or registry name); defaults to
        the process default (``$REPRO_BACKEND`` or ``numpy64``).
    precision:
        Optional ``fp64`` / ``fp32`` / ``mixed`` overlay on the backend's
        dtype policy.

    Examples
    --------
    >>> from repro.feeders import ieee13
    >>> from repro.formulation import build_centralized_lp
    >>> from repro.decomposition import decompose
    >>> lp = build_centralized_lp(ieee13())
    >>> result = SolverFreeADMM(decompose(lp)).solve()
    >>> result.converged
    True
    """

    algorithm_name = "solver-free ADMM"

    def __init__(
        self,
        dec: DecomposedOPF | ScenarioStack,
        config: ADMMConfig | None = None,
        tracer=None,
        backend=None,
        precision: str | None = None,
    ):
        super().__init__(dec, config, tracer, backend, precision)
        # Precomputation (Algorithm 1, lines 2-3): rho-independent.
        comps, offsets, local = self.stack.tiled(self.stack.base.components)
        self.local_solver = BatchedLocalSolver.from_parts(
            comps, offsets, projections=local, backend=self.backend
        )

    def local_update(self, bx, lam, rho, out=None, lam_rho=None):
        """Eq. (15): batched projection of ``v = B x + lam / rho``, built in
        the batched solver's input buffer and written into ``out`` when
        given (``lam_rho`` is ``lam / rho`` when the caller holds it)."""
        solver = self.local_solver
        if lam_rho is None:
            lam_rho = lam / self.rho_vectors(rho)[1]
        return solver.solve(self.backend.xp.add(bx, lam_rho, out=solver.v), out)

    # ------------------------------------------------------------------
    # Instrumentation for the parallel/GPU performance studies
    # ------------------------------------------------------------------
    def measure_local_costs(self, repeats: int = 5) -> np.ndarray:
        """Measured wall seconds of one *un-batched* local update per
        component (the unit of work a CPU agent performs each iteration).

        Used by the simulated cluster to replay per-rank compute time.
        """
        rng = np.random.default_rng(0)
        costs = np.empty(self.n_components)
        for s in range(self.n_components):
            n_s = int(self.local_solver.sizes[s])
            v = rng.standard_normal(n_s)
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                self.local_solver.solve_one(s, v)
                best = min(best, time.perf_counter() - t0)
            costs[s] = best
        return costs
