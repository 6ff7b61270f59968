"""Primal/dual residuals and the termination criterion (paper eq. (16)).

The paper's quantities are sums over components; because every component's
``B_s`` has orthonormal rows (each local variable copies exactly one global
variable, and local variables within a component are distinct), the
component sums collapse to plain stacked-vector norms:

    pres   = || B x - z ||_2
    dres   = rho * || z - z_prev ||_2          (= rho * sqrt(sum ||B_s^T d_s||^2))
    eps_p  = eps_rel * max(||B x||_2, ||z||_2)
    eps_d  = eps_rel * || lam ||_2             (= eps_rel * sqrt(sum ||B_s^T lam_s||^2))

where ``B x`` is the gather ``x[global_cols]``.
"""

from __future__ import annotations

import math

import numpy as np


class Residuals:
    """The four scalars of (16), plus the two tests the loop reads.

    ``converged`` is (16) itself.  ``finite`` is False as soon as any
    iterate went non-finite: the four scalars are norms over ``x``, ``z``,
    ``z_prev`` and ``lam``, so a single NaN/inf anywhere in the state
    surfaces here, and the divergence guards check this instead of
    re-scanning the vectors.  Both are fixed when the record is made.
    """

    __slots__ = ("pres", "dres", "eps_prim", "eps_dual", "converged", "finite")

    def __init__(self, pres: float, dres: float, eps_prim: float, eps_dual: float):
        self.pres = pres
        self.dres = dres
        self.eps_prim = eps_prim
        self.eps_dual = eps_dual
        self.converged = pres <= eps_prim and dres <= eps_dual
        isfinite = math.isfinite
        self.finite = (
            isfinite(pres) and isfinite(dres) and isfinite(eps_prim)
            and isfinite(eps_dual)
        )

    def __repr__(self) -> str:
        return (
            f"Residuals(pres={self.pres!r}, dres={self.dres!r}, "
            f"eps_prim={self.eps_prim!r}, eps_dual={self.eps_dual!r})"
        )


def compute_residuals(
    bx: np.ndarray,
    z: np.ndarray,
    z_prev: np.ndarray,
    lam: np.ndarray,
    rho: float,
    eps_rel: float,
    backend=None,
    diff: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> Residuals:
    """Evaluate (16) from the stacked iterates: five fp64-accumulated dots.

    Parameters
    ----------
    bx:
        The gathered global solution ``x[global_cols]`` (i.e. ``B x``).
    z, z_prev:
        Current and previous stacked local solutions.
    lam:
        Stacked consensus duals.
    backend:
        Array-execution backend; defaults to numpy fp64.  The dots run in
        its accumulate dtype (fp64): bit-identical to ``np.linalg.norm``
        on fp64 iterates, and on fp32 iterates (which share one dtype)
        after one cast each.
    diff:
        ``bx - z`` when the caller already holds it.
    scratch:
        A buffer for ``z - z_prev`` (allocated when ``None``).
    """
    if backend is None:
        from repro.backend import get_backend

        backend = get_backend("numpy64")
    xp = backend.xp
    if diff is None:
        diff = bx - z
    dz = xp.subtract(z, z_prev, out=scratch)
    acc = backend.accumulate_dtype
    if z.dtype != acc:  # fp32 iterates: accumulate the dots in fp64
        diff, dz, bx, z, lam = (xp.asarray(v, dtype=acc) for v in (diff, dz, bx, z, lam))
    sqrt = math.sqrt
    pres = sqrt(diff.dot(diff))
    dres = float(rho * sqrt(dz.dot(dz)))
    eps_prim = float(eps_rel * max(sqrt(bx.dot(bx)), sqrt(z.dot(z))))
    eps_dual = float(eps_rel * sqrt(lam.dot(lam)))
    return Residuals(pres, dres, eps_prim, eps_dual)
