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
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Residuals:
    pres: float
    dres: float
    eps_prim: float
    eps_dual: float

    @property
    def converged(self) -> bool:
        return self.pres <= self.eps_prim and self.dres <= self.eps_dual

    @property
    def finite(self) -> bool:
        """False as soon as any iterate went non-finite.

        The four scalars are norms over ``x``, ``z``, ``z_prev`` and
        ``lam``, so a single NaN/inf anywhere in the state surfaces here —
        the divergence guards check this instead of re-scanning the vectors.
        """
        return (
            math.isfinite(self.pres)
            and math.isfinite(self.dres)
            and math.isfinite(self.eps_prim)
            and math.isfinite(self.eps_dual)
        )


def compute_residuals(
    bx: np.ndarray,
    z: np.ndarray,
    z_prev: np.ndarray,
    lam: np.ndarray,
    rho: float,
    eps_rel: float,
    backend=None,
) -> Residuals:
    """Evaluate (16) from the stacked iterates.

    Parameters
    ----------
    bx:
        The gathered global solution ``x[global_cols]`` (i.e. ``B x``).
    z, z_prev:
        Current and previous stacked local solutions.
    lam:
        Stacked consensus duals.
    backend:
        Array-execution backend whose fp64-accumulated :meth:`norm` is
        used; defaults to numpy fp64, which is bit-identical to the
        historical ``np.linalg.norm`` on fp64 iterates.
    """
    if backend is None:
        from repro.backend import get_backend

        backend = get_backend("numpy64")
    norm = backend.norm
    pres = norm(bx - z)
    dres = float(rho * norm(z - z_prev))
    eps_prim = float(eps_rel * max(norm(bx), norm(z)))
    eps_dual = float(eps_rel * norm(lam))
    return Residuals(pres, dres, eps_prim, eps_dual)
