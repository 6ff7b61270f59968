"""Solver-free conic consensus ADMM for the branch-flow SOCP.

The decomposition generalizes model (9): components are either

* **linear** — equality systems ``A_s x_s = b_s`` (bus balance, line
  voltage-drop rows), solved by the same batched affine projections as
  Algorithm 1, or
* **conic** — a single rotated-SOC membership per line, solved by the
  closed-form cone projection of :mod:`repro.socp.cone`,

while all bound constraints remain in the global clip step, exactly as in
the paper.  Every local update is still a closed-form, batchable map —
the paper's "solver-free on GPUs" property carries over to the relaxation
it names as future work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend.policy import HOST_DTYPE
from repro.core.batch import BatchedLocalSolver
from repro.core.config import ADMMConfig
from repro.core.consensus import ConsensusADMM, ScenarioStack
from repro.decomposition.rowreduce import reduced_row_echelon
from repro.formulation.rows import Row, rows_to_dense_local
from repro.socp.bfm import ConicProblem
from repro.socp.cone import project_rotated_soc_batch
from repro.utils.exceptions import DecompositionError


@dataclass
class LinearComponent:
    """An equality-only component of the conic decomposition."""

    name: str
    local_keys: list
    global_cols: np.ndarray
    a: np.ndarray
    b: np.ndarray

    @property
    def n_vars(self) -> int:
        return len(self.local_keys)


@dataclass
class ConicDecomposition:
    """Linear components + cone components + stacked consensus structure.

    The stacked local vector is laid out as all linear components followed
    by all cone components (4 entries each: ``le, w, P, Q``).
    """

    problem: ConicProblem
    linear: list[LinearComponent]
    offsets_linear: np.ndarray
    n_linear: int
    cone_cols: np.ndarray  # (n_cones, 4) global columns per cone
    global_cols: np.ndarray  # full stacked map (linear then cones)
    counts: np.ndarray

    @property
    def n_components(self) -> int:
        return len(self.linear) + self.cone_cols.shape[0]

    @property
    def n_local(self) -> int:
        return int(self.global_cols.size)

    @property
    def model(self) -> ConicProblem:
        """The decomposed problem (objective, bounds, initial point)."""
        return self.problem


def _component_keys_for_rows(rows: list[Row]) -> list:
    keys: list = []
    seen: set = set()
    for row in rows:
        for key in row.coeffs:
            if key not in seen:
                seen.add(key)
                keys.append(key)
    return keys


def decompose_conic(problem: ConicProblem, rref_tol: float = 1e-9) -> ConicDecomposition:
    """Group the SOCP's rows by owner and append the cone components."""
    by_owner: dict[tuple, list[Row]] = {}
    for row in problem.rows:
        by_owner.setdefault(row.owner, []).append(row)

    vi = problem.var_index
    linear: list[LinearComponent] = []
    for owner, rows in by_owner.items():
        keys = _component_keys_for_rows(rows)
        if not keys:
            continue
        a_raw, b_raw = rows_to_dense_local(rows, keys)
        a, b, _ = reduced_row_echelon(a_raw, b_raw, tol=rref_tol)
        linear.append(
            LinearComponent(
                name=f"{owner[0]}:{owner[1]}",
                local_keys=keys,
                global_cols=np.array([vi.index(k) for k in keys], dtype=np.int64),
                a=a,
                b=b,
            )
        )

    sizes = np.array([c.n_vars for c in linear], dtype=np.int64)
    offsets_linear = np.concatenate([[0], np.cumsum(sizes)])
    n_linear = int(offsets_linear[-1])

    cone_cols = np.array(
        [
            [
                vi.index(c.u_key),
                vi.index(c.v_key),
                vi.index(c.w_keys[0]),
                vi.index(c.w_keys[1]),
            ]
            for c in problem.cones
        ],
        dtype=np.int64,
    ).reshape(len(problem.cones), 4)

    global_cols = np.concatenate(
        [c.global_cols for c in linear] + [cone_cols.reshape(-1)]
    )
    counts = np.bincount(global_cols, minlength=vi.n).astype(HOST_DTYPE)
    if np.any(counts == 0):
        missing = int(np.argmax(counts == 0))
        raise DecompositionError(
            f"variable {vi.key_of(missing)} has no local copy in the conic model"
        )
    return ConicDecomposition(
        problem=problem,
        linear=linear,
        offsets_linear=offsets_linear,
        n_linear=n_linear,
        cone_cols=cone_cols,
        global_cols=global_cols,
        counts=counts,
    )


class ConicSolverFreeADMM(ConsensusADMM):
    """Consensus ADMM over linear + conic components, all closed form.

    ``dec`` is the conic decomposition, or a
    :class:`~repro.core.consensus.ScenarioStack` of same-topology scenarios
    of it (each scenario laid out as its linear components, then its
    4-wide cone blocks).  The cone projections are dtype-preserving, so
    fp32 backends carry through unchanged.
    """

    algorithm_name = "solver-free conic ADMM (branch-flow SOCP)"
    # Plain ADMM only: the conic convergence theory does not cover
    # over-relaxation or rho rescaling.
    use_relaxation = False
    supports_balancing = False
    # The historical conic loop kept no phase timers, spans or stall watch.
    refinement_supported = False
    phase_timing = False

    def __init__(
        self,
        dec: ConicDecomposition | ScenarioStack,
        config: ADMMConfig | None = None,
        backend=None,
        precision: str | None = None,
    ):
        super().__init__(dec, config, backend=backend, precision=precision)
        if self.config.residual_balancing or self.config.relaxation != 1.0:
            raise ValueError("the conic solver runs plain ADMM only")
        base = self.stack.base
        self.n_linear = base.n_linear
        comps, offsets, local = self.stack.tiled(base.linear)
        self.linear_solver = BatchedLocalSolver.from_parts(
            comps, offsets, projections=local, backend=self.backend
        )

    def local_update(self, bx, lam, rho, out=None, lam_rho=None):
        """Batched closed-form projections of ``v = B x + lam / rho``:
        every scenario's affine blocks in one batch, then every cone, each
        written straight into ``z`` (``out`` when given; ``lam_rho`` is
        ``lam / rho`` when the caller holds it)."""
        b = self.backend
        xp = b.xp
        k_n, n_linear = self.k_n, self.n_linear
        if lam_rho is None:
            lam_rho = lam / self.rho_vectors(rho)[1]
        z = b.empty(self.n_local) if out is None else out
        bxm, lrm, zm = bx.reshape(k_n, -1), lam_rho.reshape(k_n, -1), z.reshape(k_n, -1)
        solver = self.linear_solver
        xp.add(bxm[:, :n_linear], lrm[:, :n_linear], out=solver.v.reshape(k_n, n_linear))
        solver.solve(solver.v, out=zm[:, :n_linear])
        cone = xp.add(bxm[:, n_linear:], lrm[:, n_linear:]).reshape(-1, 4)
        u, w, pq = project_rotated_soc_batch(cone[:, 0], cone[:, 1], cone[:, 2:])
        zc = zm[:, n_linear:].reshape(k_n, -1, 4)
        zc[..., 0] = u.reshape(k_n, -1)
        zc[..., 1] = w.reshape(k_n, -1)
        zc[..., 2:] = pq.reshape(k_n, -1, 2)
        return z
