"""Dense primal-dual interior-point solver for box+equality QPs.

This is the *optimization solver* that the paper's **benchmark** ADMM must
call for every component at every iteration (Section V-B): the local
subproblem of model (8),

    min  1/2 x^T Q x + d^T x
    s.t. A x = b,        l <= x <= u,

with ``Q`` symmetric positive definite (the benchmark uses ``Q = rho I``).
Algorithm 1 never calls this module — that is the paper's entire point — but
the baseline's per-iteration cost is dominated by it, which is what Figures
1 and 3 measure.

The implementation is a standard infeasible-start primal-dual path-following
method on the KKT system

    Q x + d + A^T y - z_l + z_u = 0
    A x = b
    (x - l) .* z_l = mu,   (u - x) .* z_u = mu,   z_l, z_u >= 0

with a fraction-to-boundary step rule and a geometrically decreasing
barrier.  Infinite bounds are simply excluded from the barrier terms; a
problem with no finite bounds reduces to a single KKT solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.exceptions import QPSolverError


@dataclass
class QPResult:
    """Solution report of :func:`solve_qp_box_eq`."""

    x: np.ndarray
    y: np.ndarray  # equality multipliers
    iterations: int
    converged: bool
    kkt_residual: float


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """The fraction-to-boundary step along ``dv`` that keeps ``v > 0``.

    A direction entry as small as a subnormal overflows the ratio to inf,
    which already means a full step: the overflow is not an error.
    """
    neg = dv < 0
    if not neg.any():
        return 1.0
    with np.errstate(over="ignore"):
        ratio = -v[neg] / dv[neg]
    return min(1.0, float(0.995 * np.min(ratio)))


def _solve_kkt_equality(q, d, a, b):
    """Single KKT solve for the equality-only QP (no finite bounds)."""
    n = q.shape[0]
    m = a.shape[0]
    if m == 0:
        return np.linalg.solve(q, -d), np.zeros(0)
    kkt = np.block([[q, a.T], [a, np.zeros((m, m))]])
    rhs = np.concatenate([-d, b])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as exc:
        raise QPSolverError("singular KKT system (A not full row rank?)") from exc
    return sol[:n], sol[n:]


def solve_qp_box_eq(
    q: np.ndarray,
    d: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 100,
) -> QPResult:
    """Solve ``min 1/2 x'Qx + d'x  s.t. Ax=b, lb<=x<=ub``.

    Parameters
    ----------
    q:
        SPD Hessian, shape (n, n).
    a, b:
        Equality system; ``a`` must have full row rank (row-reduce first).
    lb, ub:
        Bounds; ``±inf`` entries are unconstrained.
    tol:
        KKT residual tolerance (infinity norm).
    max_iter:
        Newton iteration budget.

    Raises
    ------
    QPSolverError
        On inconsistent bounds, singular KKT systems, or non-convergence.
    """
    q = np.asarray(q, dtype=float)
    d = np.asarray(d, dtype=float)
    a = np.asarray(a, dtype=float).reshape(-1, q.shape[0])
    b = np.asarray(b, dtype=float).reshape(-1)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    n = q.shape[0]
    m = a.shape[0]
    if np.any(lb > ub):
        raise QPSolverError("inconsistent bounds: lb > ub")

    has_l = np.isfinite(lb)
    has_u = np.isfinite(ub)
    if not has_l.any() and not has_u.any():
        x, y = _solve_kkt_equality(q, d, a, b)
        res = np.abs(q @ x + d + (a.T @ y if m else 0.0)).max() if n else 0.0
        return QPResult(x=x, y=y, iterations=1, converged=True, kkt_residual=float(res))

    il = np.where(has_l)[0]
    iu = np.where(has_u)[0]

    # Strictly interior primal start; duals start at 1.
    x = np.zeros(n)
    both = has_l & has_u
    x[both] = 0.5 * (lb[both] + ub[both])
    only_l = has_l & ~has_u
    x[only_l] = lb[only_l] + 1.0
    only_u = has_u & ~has_l
    x[only_u] = ub[only_u] - 1.0
    # Guard against degenerate boxes (lb == ub): nudge inside is impossible,
    # so shrink the complementarity target instead of perturbing x.
    width = np.where(both, ub - lb, np.inf)
    if np.any(width[both] <= 0):
        # Fixed variables: substitute and re-solve on the free subspace.
        fixed = both & (ub - lb <= 0)
        free = ~fixed
        if not free.any():
            xf = lb.copy()
            viol = np.abs(a @ xf - b).max() if m else 0.0
            if viol > 1e-8:
                raise QPSolverError("all variables fixed but Ax=b violated")
            return QPResult(x=xf, y=np.zeros(m), iterations=0, converged=True, kkt_residual=0.0)
        x_fixed = np.where(fixed, lb, 0.0)
        sub = solve_qp_box_eq(
            q[np.ix_(free, free)],
            d[free] + q[np.ix_(free, fixed)] @ lb[fixed],
            a[:, free],
            b - a[:, fixed] @ lb[fixed],
            lb[free],
            ub[free],
            tol=tol,
            max_iter=max_iter,
        )
        xf = x_fixed
        xf[free] = sub.x
        return QPResult(x=xf, y=sub.y, iterations=sub.iterations, converged=sub.converged, kkt_residual=sub.kkt_residual)

    y = np.zeros(m)
    zl = np.ones(len(il))
    zu = np.ones(len(iu))
    mu = 1.0

    for it in range(1, max_iter + 1):
        # Guard against slack underflow on strongly active bounds.
        sl = np.maximum(x[il] - lb[il], 1e-300)
        su = np.maximum(ub[iu] - x[iu], 1e-300)

        # KKT residuals.
        r_dual = q @ x + d + (a.T @ y if m else 0.0)
        np.subtract.at(r_dual, il, zl)
        np.add.at(r_dual, iu, zu)
        r_prim = a @ x - b if m else np.zeros(0)
        r_cl = sl * zl - mu
        r_cu = su * zu - mu

        kkt_res = max(
            np.abs(r_dual).max(initial=0.0),
            np.abs(r_prim).max(initial=0.0),
            (sl * zl).max(initial=0.0),
            (su * zu).max(initial=0.0),
        )
        if kkt_res < tol and mu < tol:
            return QPResult(x=x, y=y, iterations=it, converged=True, kkt_residual=float(kkt_res))

        # Condensed Newton system:
        #   (Q + D) dx + A^T dy = -r_dual - r_cl / sl + r_cu / su
        # obtained by eliminating dz_l, dz_u from the complementarity rows.
        diag = np.zeros(n)
        np.add.at(diag, il, zl / sl)
        np.add.at(diag, iu, zu / su)
        h = q + np.diag(diag)
        rhs_x = -r_dual.copy()
        np.subtract.at(rhs_x, il, r_cl / sl)
        np.add.at(rhs_x, iu, r_cu / su)

        if m:
            kkt = np.block([[h, a.T], [a, np.zeros((m, m))]])
            rhs = np.concatenate([rhs_x, -r_prim])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError as exc:
                raise QPSolverError("singular Newton KKT system") from exc
            dx, dy = sol[:n], sol[n:]
        else:
            dx = np.linalg.solve(h, rhs_x)
            dy = np.zeros(0)

        dzl = (-r_cl - zl * dx[il]) / sl
        dzu = (-r_cu + zu * dx[iu]) / su

        alpha_p = min(_max_step(sl, dx[il]), _max_step(su, -dx[iu]))
        alpha_d = min(_max_step(zl, dzl), _max_step(zu, dzu))

        x = x + alpha_p * dx
        y = y + alpha_d * dy
        zl = zl + alpha_d * dzl
        zu = zu + alpha_d * dzu

        # Barrier schedule: follow the central path down geometrically once
        # complementarity catches up with the barrier target.
        gap = (np.dot(x[il] - lb[il], zl) + np.dot(ub[iu] - x[iu], zu)) / max(
            len(il) + len(iu), 1
        )
        mu = min(mu, max(0.2 * gap, 1e-16))

    return QPResult(x=x, y=y, iterations=max_iter, converged=False, kkt_residual=float(kkt_res))
