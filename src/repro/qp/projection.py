"""Exact projection onto {Ax = b} ∩ [l, u] via semismooth Newton.

The benchmark ADMM's local subproblem — QP (14) plus the bound constraints
of model (8) — is mathematically the Euclidean projection of
``v = B_s x + lam_s / rho`` onto the intersection of an affine subspace and
a box.  The dual of that projection is an m-dimensional piecewise-smooth
root-finding problem

    phi(nu) = A clip(v - A^T nu, l, u) - b = 0,

whose generalized Jacobian is ``-A D A^T`` with ``D`` the 0/1 mask of
strictly-inside coordinates.  A damped semismooth Newton method with
Tikhonov-regularized steps solves it in a handful of iterations.

:func:`project_box_affine` projects one component.  :class:`BoxAffineProjector`
projects every component of a stacked vector at once, the way the
benchmark ADMM's ``projection`` local mode runs (the qp rung of the
fidelity ladder, its serving batches and its layered benchmark, all of
which time it): one stacked Newton pass per width bucket, a per-component
cache of the Jacobian inverse keyed by the free mask, and
:func:`project_box_affine` itself for any component the plain full-step
pass cannot finish.  Table V and Fig. 1 time the authentic
interior-point path instead.
"""

from __future__ import annotations

import numpy as np

from repro.qp.interior_point import solve_qp_box_eq
from repro.utils.exceptions import QPSolverError

#: Newton tolerance (relative to ``max(1, ||b||)``) and iteration budget.
TOL = 1e-10
MAX_ITER = 100
#: First Levenberg–Marquardt level, relative to the mean Jacobian diagonal.
REG = 1e-12
#: Sufficient decrease of ||phi|| a full (t = 1) Newton step must reach.
ACCEPT = 1 - 1e-4


def bucket_width(n: int, minimum: int = 4) -> int:
    """Power-of-two padding width for a component of size ``n``."""
    w = minimum
    while w < n:
        w <<= 1
    return w


def project_box_affine(
    v: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    tol: float = TOL,
    max_iter: int = MAX_ITER,
) -> np.ndarray:
    """Project ``v`` onto ``{x : A x = b, lb <= x <= ub}``.

    Falls back to the interior-point solver on (rare) Newton breakdowns, and
    retries both on the row-equilibrated system if both fail, so the result
    is always the exact projection.

    The Newton iteration itself always runs in fp64 (it solves
    regularized linear systems, where fp32 pivots are not trustworthy),
    but the result comes back in the caller's floating dtype: an fp32 hot
    loop that projects its iterates is not silently promoted to fp64
    state.

    Raises
    ------
    QPSolverError
        If both the Newton method and the interior-point fallback fail, on
        the system as given and on its row-equilibrated copy.
    """
    out_dtype = np.asarray(v).dtype
    if out_dtype.kind != "f":
        out_dtype = np.dtype(np.float64)
    v = np.asarray(v, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    m, n = a.shape if a.ndim == 2 else (0, v.shape[0])
    if m == 0:
        return np.clip(v, lb, ub).astype(out_dtype, copy=False)

    x = _project(v, a, b, lb, ub, tol, max_iter)
    if x is None:
        # Row reduction can leave rows ~1e7 apart in scale, which stalls
        # both paths on a feasible problem; each row divided by its
        # largest |a| describes the same set.
        row_max = np.abs(a).max(axis=1)
        row_max[row_max == 0.0] = 1.0
        x = _project(v, a / row_max[:, None], b / row_max, lb, ub, tol, max_iter)
    if x is None:
        raise QPSolverError("projection failed in both Newton and interior-point paths")
    return x.astype(out_dtype, copy=False)


def _project(v, a, b, lb, ub, tol, max_iter) -> np.ndarray | None:
    """Semismooth Newton, then the interior-point QP; ``None`` if both fail."""
    m, n = a.shape
    nu = np.zeros(m)
    x = np.clip(v - a.T @ nu, lb, ub)
    phi = a @ x - b
    norm = np.linalg.norm(phi)
    scale = max(1.0, float(np.linalg.norm(b)))

    for _ in range(max_iter):
        if norm <= tol * scale:
            return x
        inner = v - a.T @ nu
        active_free = (inner > lb) & (inner < ub)
        ad = a[:, active_free]
        jac0 = ad @ ad.T
        trace = max(np.trace(jac0) / max(m, 1), 1.0)
        # Levenberg-Marquardt: the generalized Jacobian is rank deficient
        # whenever more bounds are active than equality rows allow, so
        # escalate the regularization until a descent step is found.
        improved = False
        reg = REG
        while reg <= 1e3 and not improved:
            jac = jac0 + reg * trace * np.eye(m)
            try:
                step = np.linalg.solve(jac, phi)
            except np.linalg.LinAlgError:
                reg *= 100.0
                continue
            t = 1.0
            for _ in range(30):
                nu_new = nu + t * step
                x_new = np.clip(v - a.T @ nu_new, lb, ub)
                phi_new = a @ x_new - b
                norm_new = np.linalg.norm(phi_new)
                if norm_new < norm * (1 - 1e-4 * t) or norm_new <= tol * scale:
                    nu, x, phi, norm = nu_new, x_new, phi_new, norm_new
                    improved = True
                    break
                t *= 0.5
            reg *= 100.0
        if not improved:
            break

    if norm <= 1e-8 * scale:
        return x
    # Fallback: the problem as an explicit QP (Q = I, d = -v).
    result = solve_qp_box_eq(
        np.eye(n), -v, a, b, np.asarray(lb, dtype=float), np.asarray(ub, dtype=float)
    )
    return result.x if result.converged else None


# ----------------------------------------------------------------------
# Batched projections
# ----------------------------------------------------------------------
def _matvec(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``(S, p, q) @ (S, q) -> (S, p)``, one product per component."""
    return np.matmul(mats, vecs[:, :, None])[:, :, 0]


def _row_norms(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(np.add.reduce(rows * rows, axis=1))


def _lanes(counts: np.ndarray) -> np.ndarray:
    """``0, 1, ..., c - 1`` for each count ``c``, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


class _Bucket:
    """The components of one padding width ``w``, zero-padded to ``(w, w)``
    systems: padded columns have ``lb = ub = 0`` and padded rows ``b = 0``
    plus a unit Jacobian diagonal, so every padded entry of ``x``, ``nu``
    and ``phi`` stays exactly zero.  A component's padded shape depends on
    its own size only, and every stacked call below acts on each component
    separately, so its result never depends on the bucket's other members.
    """

    def __init__(self, comps, m, a, b, lb, ub, slots):
        self.width = a.shape[-1]
        self.comps = comps
        self.m = m
        self.slice = slots
        self.a, self.b, self.lb, self.ub = a, b, lb, ub
        self.tol_scale = TOL * np.maximum(1.0, _row_norms(self.b))
        # One cache slot per component: its last free mask and the
        # inverse of that mask's regularized Jacobian.
        self.mask = np.zeros(b.shape, dtype=bool)
        self.inv = np.empty(a.shape)
        self.cached = np.zeros(comps.size, dtype=bool)
        self.rebuilds = 0

    def inverses(self, idx, rows, mask):
        """The Jacobian inverses of rows ``idx`` (selected by ``rows``, a
        slice when ``idx`` is the whole bucket) at free mask ``mask``:
        cache hits as stored, misses rebuilt in one stacked call.

        The regularization keeps every LU pivot of order ``REG`` times the
        mean diagonal, far above its rounding error, so no pivot is zero;
        an inverse that is not finite gives a step the acceptance test
        rejects.
        """
        hit = np.logical_and.reduce(mask == self.mask[rows], axis=1)
        hit &= self.cached[rows]
        if not hit.all():
            miss = np.flatnonzero(~hit)
            built = idx[miss]
            ad = self.a[built] * mask[miss][:, None, :]
            jac = ad @ ad.transpose(0, 2, 1)
            m = self.m[built]
            trace = np.maximum(np.trace(jac, axis1=1, axis2=2) / np.maximum(m, 1), 1.0)
            jac.reshape(built.size, -1)[:, :: self.width + 1] += np.where(
                np.arange(self.width) < m[:, None], (REG * trace)[:, None], 1.0
            )
            self.inv[built] = np.linalg.inv(jac)
            self.mask[built] = mask[miss]
            self.cached[built] = True
            self.rebuilds += built.size
        return self.inv[rows]

    def newton(self, v, x, skip):
        """Project the bucket's targets ``v`` (``(S, w)``) into ``x``.

        Runs :func:`project_box_affine`'s iteration restricted to full
        steps at the first regularization level.  Returns the rows that
        step cannot finish (rejected step or budget spent) as a list of
        index arrays; their ``x`` rows are left for the scalar routine.
        Rows in ``skip`` (non-finite targets) get NaN.
        """
        np.minimum(np.maximum(v, self.lb, out=x), self.ub, out=x)
        phi = _matvec(self.a, x) - self.b
        norm = _row_norms(phi)
        todo = norm > self.tol_scale
        if skip is not None:
            x[skip] = np.nan
            todo &= ~skip
        idx = np.flatnonzero(todo)
        size = self.comps.size
        if idx.size < size:
            phi, norm = phi[idx], norm[idx]
        nu = None
        rejected = []
        for _ in range(MAX_ITER):
            if not idx.size:
                break
            # A pass over the whole bucket works on views, later passes on
            # copies of their rows.
            rows = slice(None) if idx.size == size else idx
            a, v_i, lb, ub, b, ts = (
                arr[rows] for arr in (self.a, v, self.lb, self.ub, self.b, self.tol_scale)
            )
            at = a.transpose(0, 2, 1)
            # nu = 0 on the first pass, where v - A^T nu is v itself.
            inner = v_i if nu is None else v_i - _matvec(at, nu)
            inv = self.inverses(idx, rows, (inner > lb) & (inner < ub))
            step = _matvec(inv, phi)
            nu = step if nu is None else nu + step
            x_new = np.minimum(np.maximum(v_i - _matvec(at, nu), lb), ub)
            phi_new = _matvec(a, x_new) - b
            norm_new = _row_norms(phi_new)
            done = norm_new <= ts
            if done.all():
                # The common case: every row converged in this pass.
                x[rows] = x_new
                break
            ok = done | (norm_new < norm * ACCEPT)
            finished = ok & done
            x[idx[finished]] = x_new[finished]
            rejected.append(idx[~ok])
            keep = ok & ~done
            idx, nu, phi, norm = idx[keep], nu[keep], phi_new[keep], norm_new[keep]
        else:
            rejected.append(idx)
        return rejected


class BoxAffineProjector:
    """:func:`project_box_affine` for every component of a stacked vector.

    ``systems`` lists each component's ``(a, b)`` and ``lb``, ``ub`` are
    the stacked bounds: component ``s`` owns the next ``a.shape[1]``
    entries of the stacked vector.  Components are grouped by the
    power-of-two padding width of :class:`repro.core.batch.
    BatchedLocalSolver` and each Newton pass runs over a bucket's
    unconverged components at once: the scalar routine's free mask, its
    first regularization level (``REG`` times the mean diagonal over the
    component's true row count) and its full step and acceptance test.
    The regularized Jacobian depends only on ``A_s`` and the free mask, so
    each component keeps one cache slot (its last mask and that Jacobian's
    inverse); misses are rebuilt in one stacked call.  A component whose
    full step is rejected (a factorization that broke down into a
    non-finite inverse included) or which is unconverged after
    ``MAX_ITER`` passes is projected again from scratch by
    :func:`project_box_affine`, with its Levenberg–Marquardt escalation,
    line search and interior-point fallback, so every answer is the exact
    projection.

    A component's result depends on its own data and target only: not on
    the other components, their order or the cache's contents.  A target
    with a non-finite entry projects to NaN, with no Newton or
    interior-point attempt.

    Everything runs in fp64 on the host.  ``fallbacks`` counts the
    projections handed to :func:`project_box_affine` and ``rebuilds`` the
    Jacobian inverses built, both over the projector's lifetime.
    """

    def __init__(self, systems, lb: np.ndarray, ub: np.ndarray):
        self.systems = systems = list(systems)
        self.lb, self.ub = lb, ub
        m, n = np.array([a.shape for a, _ in systems], dtype=np.int64).T
        self.offsets = np.concatenate([[0], np.cumsum(n)])
        self.n = int(self.offsets[-1])
        # Components in bucket order, each padded to its width w: a w-slot
        # run of the padded vector layout and a (w, w) block of the padded
        # matrix layout, every bucket's runs and blocks laid end to end.
        widths = np.array([bucket_width(k) for k in n.tolist()], dtype=np.int64)
        order = np.argsort(widths, kind="stable")
        w, m, n = widths[order], m[order], n[order]
        first = np.cumsum(w) - w
        block = np.cumsum(w * w) - w * w
        n_pad = int(first[-1] + w[-1])
        lane = _lanes(n)
        pad = np.repeat(first, n) + lane
        stacked = np.repeat(self.offsets[order], n) + lane
        # Each padded slot reads its stacked entry, or the trailing zero of
        # the input buffer; each stacked entry comes back from its slot.
        self._pad_from_stack = np.full(n_pad, self.n, dtype=np.int64)
        self._pad_from_stack[pad] = stacked
        self._stack_from_pad = np.empty(self.n, dtype=np.int64)
        self._stack_from_pad[stacked] = pad
        self._v_stack = np.zeros(self.n + 1)
        self._v_stack[: self.n] = lb
        lb_pad = self._v_stack.take(self._pad_from_stack)
        self._v_stack[: self.n] = ub
        ub_pad = self._v_stack.take(self._pad_from_stack)
        b_pad = np.zeros(n_pad)
        ordered = [systems[s] for s in order.tolist()]
        b_pad[np.repeat(first, m) + _lanes(m)] = np.concatenate([b for _, b in ordered])
        # Row i of component s's A starts at i * w of its block.
        a_pad = np.zeros(int(block[-1] + w[-1] ** 2))
        row_len = np.repeat(n, m)
        row_start = np.repeat(block, m) + _lanes(m) * np.repeat(w, m)
        a_pad[np.repeat(row_start, row_len) + _lanes(row_len)] = np.concatenate(
            [a.ravel() for a, _ in ordered]
        )
        self.buckets = []
        bounds = np.flatnonzero(np.diff(w)) + 1
        for lo, hi in zip([0, *bounds.tolist()], [*bounds.tolist(), order.size]):
            k, width = hi - lo, int(w[lo])
            vec = slice(int(first[lo]), int(first[lo]) + k * width)
            mat = slice(int(block[lo]), int(block[lo]) + k * width * width)
            self.buckets.append(_Bucket(
                order[lo:hi], m[lo:hi], a_pad[mat].reshape(k, width, width),
                b_pad[vec].reshape(k, width), lb_pad[vec].reshape(k, width),
                ub_pad[vec].reshape(k, width), vec,
            ))
        self._x_pad = np.empty(n_pad)
        self.fallbacks = 0

    @property
    def rebuilds(self) -> int:
        return sum(bk.rebuilds for bk in self.buckets)

    def project(self, v: np.ndarray) -> np.ndarray:
        """Every component's projection of the stacked fp64 vector ``v``."""
        self._v_stack[: self.n] = v
        v_pad = self._v_stack.take(self._pad_from_stack)
        x_pad = self._x_pad
        finite = bool(np.isfinite(v_pad).all())
        fallback = []
        for bk in self.buckets:
            shape = (bk.comps.size, bk.width)
            vb = v_pad[bk.slice].reshape(shape)
            skip = None if finite else ~np.isfinite(vb).all(axis=1)
            for rows in bk.newton(vb, x_pad[bk.slice].reshape(shape), skip):
                fallback.extend(bk.comps[rows].tolist())
        z = x_pad.take(self._stack_from_pad)
        self.fallbacks += len(fallback)
        for s in fallback:
            sl = slice(int(self.offsets[s]), int(self.offsets[s + 1]))
            a, b = self.systems[s]
            z[sl] = project_box_affine(self._v_stack[sl], a, b, self.lb[sl], self.ub[sl])
        return z
