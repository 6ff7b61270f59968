"""Column equilibration of the centralized LP (conditioning extension).

ADMM applies one penalty ``rho`` to every consensus coordinate, so its
convergence constant depends on how uniformly the variables are scaled.
Distribution OPF data is naturally heterogeneous — per-unit voltages sit
near 1 while individual service loads are 1e-4 — and the constraint columns
inherit that spread.  This module rescales variables by (the inverse of)
the geometric mean of their column magnitudes,

    x = D x',    A' = A D,    lb' = D^{-1} lb,   ub' = D^{-1} ub,
    c' = D c,

which leaves the problem mathematically identical but presents ADMM with
equilibrated columns.  :func:`scale_lp` produces a scaled
:class:`CentralizedLP` whose rows keep their component owners (so the
decomposition pipeline is unchanged) plus the diagonal needed to map
solutions back; ``bench_ablation_scaling`` measures the effect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend.policy import HOST_DTYPE

from repro.formulation.centralized import CentralizedLP
from repro.formulation.rows import Row
from repro.formulation.variables import VariableIndex, VarKey


@dataclass
class ScaledLP:
    """A scaled problem plus the inverse map to original units."""

    lp: CentralizedLP
    col_scale: np.ndarray  # d: x_original = d * x_scaled

    def unscale(self, x_scaled: np.ndarray) -> np.ndarray:
        """Map a scaled-space solution back to original units."""
        return self.col_scale * x_scaled

    def scale_point(self, x: np.ndarray) -> np.ndarray:
        """Map an original-units point (e.g. a warm start) into scaled space."""
        return x / self.col_scale


def column_scales(
    lp: CentralizedLP, clip: float = 1e4, include_cost: bool = True
) -> np.ndarray:
    """Geometric-mean column equilibration factors ``d`` (clipped).

    Columns with no nonzeros keep ``d = 1``.  ``clip`` bounds the dynamic
    range of the scaling itself (extreme factors would trade one kind of
    ill-conditioning for another).
    """
    a = lp.a_matrix.tocsc()
    n = lp.n_vars
    d = np.ones(n)
    for j in range(n):
        vals = np.abs(a.data[a.indptr[j] : a.indptr[j + 1]])
        vals = vals[vals > 0]
        entries = list(vals)
        if include_cost and lp.cost[j] != 0:
            entries.append(abs(lp.cost[j]))
        if entries:
            gm = float(np.exp(np.mean(np.log(entries))))
            d[j] = 1.0 / gm
    return np.clip(d, 1.0 / clip, clip)


def scale_lp(lp: CentralizedLP, d: np.ndarray | None = None) -> ScaledLP:
    """Build the equilibrated problem ``min c'D x'  s.t.  A D x' = b``.

    The returned LP's rows keep their owners/tags, so
    :func:`repro.decomposition.decompose` applies unchanged; solve in scaled
    space and call :meth:`ScaledLP.unscale` on the result.
    """
    if d is None:
        d = column_scales(lp)
    d = np.asarray(d, dtype=HOST_DTYPE)
    if d.shape != (lp.n_vars,) or np.any(d <= 0):
        raise ValueError("scale vector must be positive with one entry per column")

    old_vi = lp.var_index
    scale_of: dict[VarKey, float] = {k: float(d[old_vi.index(k)]) for k in old_vi.keys}

    new_vi = VariableIndex()
    lb = lp.lb
    ub = lp.ub
    volt = old_vi.voltage_mask()
    x0_old = old_vi.initial_point()
    for i, key in enumerate(old_vi.keys):
        new_vi.add(
            key,
            lb=lb[i] / d[i],
            ub=ub[i] / d[i],
            cost=lp.cost[i] * d[i],
            # The paper's "voltage -> 1" rule is units-specific; carry the
            # initialization through the scaling instead.
            is_voltage=False,
            init=float(x0_old[i] / d[i]),
        )
        _ = volt  # voltage handling folded into init above

    new_rows = [
        Row(
            {k: coef * scale_of[k] for k, coef in row.coeffs.items()},
            row.rhs,
            row.owner,
            tag=row.tag,
        )
        for row in lp.rows
    ]
    scaled = CentralizedLP.assemble(lp.network, new_vi, new_rows)
    return ScaledLP(lp=scaled, col_scale=d)
