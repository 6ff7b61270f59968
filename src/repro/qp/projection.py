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
which time it): a first Newton pass over every width bucket at once, later
passes one component at a time on views of its slots for the few still
unconverged, a per-component cache of the Jacobian inverse keyed by the
free mask, and :func:`project_box_affine` itself for any component the
plain full-step pass cannot finish.  Table V and Fig. 1 time the authentic
interior-point path instead.
"""

from __future__ import annotations

import math

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
    """Power-of-two padding width for a component of size ``n``: the
    buckets of :class:`BoxAffineProjector`."""
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
        return np.minimum(np.maximum(v, lb), ub).astype(out_dtype, copy=False)

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


def _clip_point(v, at, nu, lb, ub):
    """``clip(v - A^T nu, lb, ub)``, allocating one array."""
    x = v - at @ nu
    return np.minimum(np.maximum(x, lb, out=x), ub, out=x)


def _affine_residual(a, x, b):
    """``(A x - b, ||A x - b||)``."""
    phi = a @ x
    phi -= b
    return phi, math.sqrt(phi.dot(phi))


def _project(v, a, b, lb, ub, tol, max_iter) -> np.ndarray | None:
    """Semismooth Newton, then the interior-point QP; ``None`` if both fail.

    Every clip is ``minimum(maximum(.))`` and every norm ``sqrt(r . r)``:
    the bits of ``np.clip`` and ``np.linalg.norm`` without their wrappers,
    which the line search would call about 150 times per projection.
    """
    m, n = a.shape
    at = a.T
    nu = np.zeros(m)
    x = _clip_point(v, at, nu, lb, ub)
    phi, norm = _affine_residual(a, x, b)
    scale = max(1.0, math.sqrt(b.dot(b)))
    goal = tol * scale

    for _ in range(max_iter):
        if norm <= goal:
            return x
        inner = v - at @ nu
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
                x_new = _clip_point(v, at, nu_new, lb, ub)
                phi_new, norm_new = _affine_residual(a, x_new, b)
                if norm_new < norm * (1 - 1e-4 * t) or norm_new <= goal:
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

    Its vectors are ``(S, w)`` views of the projector's padded buffers
    (the slots ``vec``), with ``(S, w, 1)`` twins named with a trailing 3
    for the products, and its per-component arrays views of the
    projector's (the rows ``rows``).  A row's later passes work on
    ``(1, ...)`` slices of the same blocks, made the first time the row
    needs one.
    """

    def __init__(self, owner, comps, m, vec, rows, a, inv):
        self.width, self.comps, self.m = a.shape[-1], comps, m
        self.vec, self.rows = vec, rows
        self.a, self.at = a, a.transpose(0, 2, 1)
        block = self.block
        self.b, self.lb, self.ub = block(owner._b), block(owner._lb), block(owner._ub)
        self.tol_scale = TOL * np.maximum(1.0, _row_norms(self.b))
        self.v, self.x, self.t, self.inner, self.sq, self.free = (
            block(buf)
            for buf in (owner._v, owner._x, owner._t, owner._inner, owner._sq, owner._free)
        )
        self.phi, self.phi_new, self.step = (
            block(buf) for buf in (owner._phi, owner._phi_new, owner._step)
        )
        self.x3, self.t3, self.phi3, self.phi_new3, self.step3 = (
            arr[:, :, None] for arr in (self.x, self.t, self.phi, self.phi_new, self.step)
        )
        self.norm, self.norm_new = owner._norm[rows], owner._norm_new[rows]
        self.every = np.arange(comps.size)
        # One cache slot per component: its last free mask and the
        # inverse of that mask's regularized Jacobian.
        self.mask, self.cached, self.inv = block(owner._mask), owner._cached[rows], inv
        self.rebuilds = 0
        self._views = [None] * comps.size

    def block(self, buf: np.ndarray) -> np.ndarray:
        """The bucket's ``(S, w)`` block of a padded vector."""
        return buf[self.vec].reshape(self.comps.size, self.width)

    def refresh(self, idx, mask):
        """Make the cached inverses of rows ``idx`` those of free masks
        ``mask``: slots already holding that mask are kept, the misses
        rebuilt in one stacked call."""
        hit = np.logical_and.reduce(mask == self.mask[idx], axis=1)
        hit &= self.cached[idx]
        if not hit.all():
            miss = np.flatnonzero(~hit)
            self.build(idx[miss], mask[miss])

    def build(self, idx, mask):
        """Cache the inverses of rows ``idx``'s regularized Jacobians at
        free masks ``mask``, in one stacked call.

        The regularization keeps every LU pivot of order ``REG`` times the
        mean diagonal, far above its rounding error, so no pivot is zero;
        an inverse that is not finite gives a step the acceptance test
        rejects.
        """
        ad = self.a[idx] * mask[:, None, :]
        jac = ad @ ad.transpose(0, 2, 1)
        m = self.m[idx]
        trace = np.maximum(np.trace(jac, axis1=1, axis2=2) / np.maximum(m, 1), 1.0)
        jac.reshape(idx.size, -1)[:, :: self.width + 1] += np.where(
            np.arange(self.width) < m[:, None], (REG * trace)[:, None], 1.0
        )
        self.inv[idx] = np.linalg.inv(jac)
        self.mask[idx] = mask
        self.cached[idx] = True
        self.rebuilds += idx.size

    def newton(self, i: int, norm: float) -> int:
        """Newton passes 2, 3, ... for row ``i``, whose first step the
        first pass accepted at residual norm ``norm``.

        Runs :func:`project_box_affine`'s iteration restricted to full
        steps at the first regularization level, each product the same
        per-component call on the same shapes as the first pass's, on
        ``(1, ...)`` views of the row's slots.  The first pass left the
        row's ``nu`` in ``step``, its ``phi`` in ``phi_new``, its point in
        the output block ``t`` and that point before the clip,
        ``v - A^T nu``, in ``inner``; each pass takes its free mask from
        ``inner`` and updates all four in place.  Returns the pass that
        finished the row, or minus the pass at which it was given up (a
        rejected step, or the ``MAX_ITER`` budget spent), leaving it to
        the scalar routine.
        """
        views = self._views[i] or self._row(i)
        idx, a, at, inv, v, lb, ub, b, mask, inner, x, x3, nu, nu3, phi, phi3, d, d3 = views
        tol = float(self.tol_scale[i])
        for k in range(2, MAX_ITER + 1):
            free = (inner > lb) & (inner < ub)
            # The first pass cached every row it leaves undone, so the
            # hit test is the mask alone; 0/1 bool masks compare as bytes,
            # at a tenth of a not_equal(...).any().
            if free.tobytes() != mask.tobytes():
                self.build(idx, free)
            np.matmul(inv, phi3, out=d3)
            nu += d
            np.matmul(at, nu3, out=d3)
            np.subtract(v, d, out=inner)
            np.minimum(np.maximum(inner, lb, out=x), ub, out=x)
            np.matmul(a, x3, out=phi3)
            phi -= b
            norm_new = math.sqrt(np.add.reduce(phi * phi, axis=1)[0])
            if norm_new <= tol:
                return k
            if not norm_new < norm * ACCEPT:
                return -k
            norm = norm_new
        return -MAX_ITER

    def _row(self, i: int) -> tuple:
        """Row ``i``'s index, its ``(1, ...)`` views and a step scratch."""
        one = slice(i, i + 1)
        d3 = np.empty((1, self.width, 1))
        self._views[i] = views = (
            np.array([i]), self.a[one], self.at[one], self.inv[one], self.v[one],
            self.lb[one], self.ub[one], self.b[one], self.mask[one], self.inner[one],
            self.t[one], self.t3[one], self.step[one], self.step3[one],
            self.phi_new[one], self.phi_new3[one], d3[:, :, 0], d3,
        )
        return views


class BoxAffineProjector:
    """:func:`project_box_affine` for every component of a stacked vector.

    ``systems`` lists each component's ``(a, b)`` and ``lb``, ``ub`` are
    the stacked bounds: component ``s`` owns the next ``a.shape[1]``
    entries of the stacked vector.  Components are grouped by their own
    power-of-two padding width (:func:`bucket_width`), not the planned
    widths of :class:`repro.core.batch.BatchedLocalSolver`: the padded
    Jacobian inverses change bits at other widths.  Every bucket's
    ``(S_b, w)`` block lies end to end in one padded layout, and each
    Newton pass is the scalar routine's free mask, its first
    regularization level (``REG`` times the mean diagonal over the
    component's true row count) and its full step and acceptance test.

    The first pass runs over every bucket at once: each elementwise step
    (the clip, ``- b``, the squares, the free mask, the step update and
    the re-clip) is one operation on the whole padded vector, and each
    product one ``matmul`` per bucket on its ``(S_b, w, w)`` block.  Row
    norms reduce each bucket's contiguous ``(S_b, w)`` block, the layout
    the sum order depends on.  Later passes run one row at a time on
    ``(1, ...)`` views of the few rows still unconverged (one row in
    about nine of ten calls of a spec-tier ieee13 qp solve), each pass
    taking its free mask from the previous one's point before the clip.

    The regularized Jacobian depends only on ``A_s`` and the free mask, so
    each component keeps one cache slot (its last mask and that Jacobian's
    inverse); the slots' masks are views of one padded array, so the
    first pass's hit test is one whole-vector comparison, and misses are
    rebuilt per bucket in one stacked call; a later pass compares its
    row's mask alone.  A component whose full step
    is rejected (a factorization that broke down into a non-finite
    inverse included) or which is unconverged after ``MAX_ITER`` passes is
    projected again from scratch by :func:`project_box_affine`, with its
    Levenberg–Marquardt escalation, line search and interior-point
    fallback, so every answer is the exact projection.

    A component's result depends on its own data and target only: not on
    the other components, their order or the cache's contents.  A target
    with a non-finite entry projects to NaN, with no Newton or
    interior-point attempt; a component already feasible at ``nu = 0``
    keeps ``clip(v)`` and its cache slot.

    Everything runs in fp64 on the host, in buffers allocated here (a
    row's views and step scratch the first time it needs a later pass).
    A caller that builds the target in :attr:`v`, the input buffer,
    spares the copy in.  ``fallbacks`` counts the projections handed to
    :func:`project_box_affine` and ``rebuilds`` the Jacobian inverses
    built, both over the projector's lifetime.
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
        self._lb = self._v_stack.take(self._pad_from_stack)
        self._v_stack[: self.n] = ub
        self._ub = self._v_stack.take(self._pad_from_stack)
        self._v_stack[: self.n] = 0.0
        #: The input buffer: a target built here is projected without a copy.
        self.v = self._v_stack[: self.n]
        self._b = np.zeros(n_pad)
        ordered = [systems[s] for s in order.tolist()]
        self._b[np.repeat(first, m) + _lanes(m)] = np.concatenate([b for _, b in ordered])
        # Row i of component s's A starts at i * w of its block.
        a_pad = np.zeros(int(block[-1] + w[-1] ** 2))
        row_len = np.repeat(n, m)
        row_start = np.repeat(block, m) + _lanes(m) * np.repeat(w, m)
        a_pad[np.repeat(row_start, row_len) + _lanes(row_len)] = np.concatenate(
            [a.ravel() for a, _ in ordered]
        )
        inv_pad = np.zeros_like(a_pad)
        # The padded vectors of a call: the target, clip(v), the first
        # pass's x_new (the output) and that point before the clip, phi
        # before and after the step, the squares and the step; the free
        # mask and a comparison scratch; the cache slots' masks.
        (self._v, self._x, self._t, self._inner, self._phi, self._phi_new, self._sq,
         self._step) = (np.empty(n_pad) for _ in range(8))
        self._free, self._scratch = np.empty(n_pad, bool), np.empty(n_pad, bool)
        self._mask = np.zeros(n_pad, bool)
        # Per component, in bucket order.
        size = order.size
        self._norm, self._norm_new = np.empty(size), np.empty(size)
        self._todo, self._done = np.empty(size, bool), np.empty(size, bool)
        self._cached = np.zeros(size, bool)
        self._all_cached = False
        self.buckets = []
        bounds = np.flatnonzero(np.diff(w)) + 1
        for lo, hi in zip([0, *bounds.tolist()], [*bounds.tolist(), size]):
            k, width = hi - lo, int(w[lo])
            vec = slice(int(first[lo]), int(first[lo]) + k * width)
            mat = slice(int(block[lo]), int(block[lo]) + k * width * width)
            self.buckets.append(_Bucket(
                self, order[lo:hi], m[lo:hi], vec, slice(lo, hi),
                a_pad[mat].reshape(k, width, width), inv_pad[mat].reshape(k, width, width),
            ))
        # (A, x, phi, squares, norms) per bucket, at clip(v) and at x_new.
        self._at_x = [(bk.a, bk.x3, bk.phi3, bk.sq, bk.norm) for bk in self.buckets]
        self._at_t = [(bk.a, bk.t3, bk.phi_new3, bk.sq, bk.norm_new) for bk in self.buckets]
        self._tol = np.concatenate([bk.tol_scale for bk in self.buckets])
        # Each row's bucket, its row there and its component.
        self._where = [
            (bk, i, s) for bk in self.buckets for i, s in enumerate(bk.comps.tolist())
        ]
        self.fallbacks = 0

    @property
    def rebuilds(self) -> int:
        return sum(bk.rebuilds for bk in self.buckets)

    def _affine_residuals(self, products, phi, norm) -> None:
        """``phi = A x - b`` and its row norms, every bucket at once."""
        for a, x, phi_b, _, _ in products:
            np.matmul(a, x, out=phi_b)
        np.subtract(phi, self._b, out=phi)
        np.multiply(phi, phi, out=self._sq)
        for _, _, _, sq, norm_b in products:
            np.add.reduce(sq, axis=1, out=norm_b)
        np.sqrt(norm, out=norm)

    def project(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Every component's projection of the stacked fp64 vector ``v``,
        into ``out`` (any float dtype) when given."""
        if v is not self.v:
            self.v[...] = v
        vp, x, t, lb, ub = self._v, self._x, self._t, self._lb, self._ub
        self._v_stack.take(self._pad_from_stack, out=vp, mode="clip")
        np.minimum(np.maximum(vp, lb, out=x), ub, out=x)
        skip = None if np.isfinite(vp).all() else self._non_finite()
        self._affine_residuals(self._at_x, self._phi, self._norm)
        todo = np.greater(self._norm, self._tol, out=self._todo)
        if skip is not None:
            todo &= ~skip
        # The first pass: nu = 0, where v - A^T nu is v itself.
        free = np.logical_and(
            np.greater(vp, lb, out=self._free), np.less(vp, ub, out=self._scratch),
            out=self._free,
        )
        every = bool(todo.all())
        if not (
            every and self._all_cached
            and not np.not_equal(free, self._mask, out=self._scratch).any()
        ):
            for bk in self.buckets:
                idx = bk.every if every else np.flatnonzero(todo[bk.rows])
                if idx.size:
                    bk.refresh(idx, bk.free[idx])
            self._all_cached = bool(self._cached.all())
        for bk in self.buckets:
            np.matmul(bk.inv, bk.phi3, out=bk.step3)
            np.matmul(bk.at, bk.step3, out=bk.t3)
        inner = np.subtract(vp, t, out=self._inner)
        np.minimum(np.maximum(inner, lb, out=t), ub, out=t)
        self._affine_residuals(self._at_t, self._phi_new, self._norm_new)
        done = np.less_equal(self._norm_new, self._tol, out=self._done)
        if not every:
            # Components the pass skipped keep clip(v), or NaN.
            for bk in self.buckets:
                idx = np.flatnonzero(~todo[bk.rows])
                bk.t[idx] = bk.x[idx]
            done |= ~todo
        fallback = [] if done.all() else self._later_passes(done)
        z = t.take(self._stack_from_pad, out=out, mode="clip")
        self.fallbacks += len(fallback)
        for s in fallback:
            sl = slice(int(self.offsets[s]), int(self.offsets[s + 1]))
            a, b = self.systems[s]
            z[sl] = project_box_affine(self.v[sl], a, b, self.lb[sl], self.ub[sl])
        return z

    def _later_passes(self, done: np.ndarray) -> list:
        """Finish the components the first pass left undone, one row at a
        time: the first step's acceptance test, then the row's later
        passes.  Returns the components left for the scalar routine."""
        norm, norm_new, where = self._norm, self._norm_new, self._where
        fallback = []
        for r in np.flatnonzero(~done).tolist():
            bk, i, s = where[r]
            step_norm = float(norm_new[r])
            if not (step_norm < norm[r] * ACCEPT and bk.newton(i, step_norm) > 0):
                fallback.append(s)
        return fallback

    def _non_finite(self) -> np.ndarray:
        """The components whose target has a non-finite entry, their
        ``clip(v)`` rows set to NaN so the pass computes no inf."""
        bad = ~np.isfinite(self._v)
        skip = np.empty(self._cached.size, bool)
        for bk in self.buckets:
            rows = np.logical_or.reduce(bk.block(bad), axis=1, out=skip[bk.rows])
            bk.x[rows] = np.nan
        return skip
