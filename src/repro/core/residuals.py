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

import functools
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


def _residuals(subtract, eps_rel, diff, scratch, cast, bx, z, z_prev, lam, rho):
    """(16) from the stacked iterates: five fp64-accumulated dots (the rule
    :func:`bind_residuals` binds and :func:`compute_residuals` calls)."""
    d = bx - z if diff is None else diff
    dz = subtract(z, z_prev, out=scratch)
    if cast is not None:
        w_diff, w_dz, w_bx, w_z, w_lam = cast
        w_diff[...] = d
        w_dz[...] = dz
        w_bx[...] = bx
        w_z[...] = z
        w_lam[...] = lam
        d, dz, bx, z, lam = cast
    sqrt = math.sqrt
    pres = sqrt(d.dot(d))
    dres = float(rho * sqrt(dz.dot(dz)))
    eps_prim = float(eps_rel * max(sqrt(bx.dot(bx)), sqrt(z.dot(z))))
    eps_dual = float(eps_rel * sqrt(lam.dot(lam)))
    return Residuals(pres, dres, eps_prim, eps_dual)


def bind_residuals(xp, eps_rel: float, diff=None, scratch=None, cast=None):
    """Evaluation of (16) as a step ``(bx, z, z_prev, lam, rho) ->
    Residuals``: five fp64-accumulated dots.

    ``xp`` is the array namespace of the iterates.  ``diff`` is a buffer
    that holds ``bx - z`` whenever the step is called (the loop's dual
    step leaves it there), or ``None`` to compute it.  ``z - z_prev``
    goes into ``scratch`` (allocated when ``None``).  ``cast`` holds five
    accumulate-dtype (fp64) vectors that narrower (fp32) iterates are
    copied into before the dots, so the dots accumulate in fp64; ``None``
    runs the dots on the iterates themselves.
    """
    return functools.partial(_residuals, xp.subtract, eps_rel, diff, scratch, cast)


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
    cast: tuple | None = None,
) -> Residuals:
    """Evaluate (16) once from the stacked iterates, by the rule
    :func:`bind_residuals` binds.

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
    cast:
        Five vectors in the accumulate dtype that fp32 iterates are cast
        into (allocated when ``None``); unused on fp64 iterates.
    """
    if backend is None:
        from repro.backend import get_backend

        backend = get_backend("numpy64")
    xp = backend.xp
    acc = backend.accumulate_dtype
    if z.dtype == acc:
        cast = None
    elif cast is None:
        cast = tuple(xp.empty(z.shape, dtype=acc) for _ in range(5))
    return _residuals(xp.subtract, eps_rel, diff, scratch, cast, bx, z, z_prev, lam, rho)
