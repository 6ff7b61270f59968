"""Centralized multi-phase linearized OPF assembly (paper eq. (7)).

:func:`build_centralized_lp` turns a :class:`DistributionNetwork` into the
abstract LP

    min c^T x   s.t.   A x = b,   x_lb <= x <= x_ub

with the global variable ordering of (7): generation, squared voltages, load
variables, then directed line flows.  The produced :class:`CentralizedLP`
also keeps the symbolic :class:`~repro.formulation.rows.Row` list with
component ownership tags, which the decomposition package regroups into
component subproblems without re-deriving any constraint.

:func:`certify_active_set` is the host-side fp64 active-set polish with
its Lagrangian certificate (docs/ALGORITHMS.md §11): fix the columns an
iterate has at a bound, solve what is left exactly, and keep the point
only when it is feasible and provably optimal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from repro.backend.blas import single_blas_thread
from repro.backend.policy import HOST_DTYPE
from repro.formulation.balance import balance_rows
from repro.formulation.flow import flow_rows
from repro.formulation.loads import load_rows
from repro.formulation.rows import Row, rows_to_matrix
from repro.formulation.variables import VariableIndex
from repro.network.network import DistributionNetwork
from repro.utils.exceptions import FormulationError


@dataclass
class CentralizedLP:
    """The assembled centralized LP (7) plus its symbolic structure."""

    network: DistributionNetwork
    var_index: VariableIndex
    rows: list[Row]
    a_matrix: sp.csr_matrix
    b_vector: np.ndarray
    cost: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    @property
    def n_vars(self) -> int:
        return self.var_index.n

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, columns) of A — the quantity reported in Table II."""
        return (self.n_rows, self.n_vars)

    def initial_point(self) -> np.ndarray:
        return self.var_index.initial_point()

    def objective(self, x: np.ndarray) -> float:
        return float(self.cost @ x)

    def equality_violation(self, x: np.ndarray) -> float:
        """Infinity norm of ``A x - b`` at ``x``."""
        return float(np.max(np.abs(self.a_matrix @ x - self.b_vector))) if self.n_rows else 0.0

    def bound_violation(self, x: np.ndarray) -> float:
        return float(
            max(
                np.max(np.maximum(self.lb - x, 0.0), initial=0.0),
                np.max(np.maximum(x - self.ub, 0.0), initial=0.0),
            )
        )

    def primal_violation(self, x: np.ndarray) -> float:
        """The larger of ``||A x - b||_inf`` and the worst bound violation."""
        return max(self.equality_violation(x), self.bound_violation(x))


#: A column is fixed at a bound when ``lb == ub`` or the iterate lies
#: within this fraction of its box width of the bound.
POLISH_ACTIVE_TOL = 1e-4
#: Largest accepted ``||A x - b||_inf`` of a polished point.
POLISH_FEASIBILITY_TOL = 1e-9
#: Largest accepted reduced cost on a free column, relative to the
#: magnitudes it sums (``|c_j| + |A_j|^T |lam|``).
POLISH_REDUCED_COST_TOL = 1e-12
#: Largest accepted ``c^T x - g(lam)``, relative to ``max(1, |c^T x|)``.
POLISH_GAP_TOL = 1e-9


@dataclass(frozen=True)
class ActiveSetCertificate:
    """A polished point of a :class:`CentralizedLP` and its proof.

    ``bound`` is the Lagrangian lower bound ``g(lam)`` on the LP optimum;
    ``gap`` is ``(c^T x - g(lam)) / max(1, |c^T x|)``.
    """

    x: np.ndarray
    objective: float
    bound: float
    gap: float


def certify_active_set(lp: CentralizedLP, x) -> ActiveSetCertificate | None:
    """Polish the iterate ``x`` on its active set and certify the result.

    Every column ``x`` has at a bound (``lb == ub``, or within
    :data:`POLISH_ACTIVE_TOL` of the box width) is fixed at that bound.
    When the remaining columns ``I`` leave ``A_I`` square, one sparse LU
    solves ``A_I x_I = b - A_A x_A`` and ``A_I^T lam = -c_I`` (on one BLAS
    thread, :mod:`repro.backend.blas`).  The point is
    returned only when it lies in its box with ``||A x - b||_inf`` at most
    :data:`POLISH_FEASIBILITY_TOL`, the reduced costs ``d = c + A^T lam``
    vanish on ``I`` to :data:`POLISH_REDUCED_COST_TOL`, and the Lagrangian
    bound ``g(lam) = sum_A min(d_j lb_j, d_j ub_j) - lam^T b`` is within
    :data:`POLISH_GAP_TOL` of ``c^T x``; otherwise the result is ``None``.
    The polished point depends on ``x`` only through the active set.
    """
    x = np.asarray(x, dtype=HOST_DTYPE)
    lb, ub, c, b, a = lp.lb, lp.ub, lp.cost, lp.b_vector, lp.a_matrix
    width = ub - lb
    tol = POLISH_ACTIVE_TOL * np.where(np.isfinite(width), width, 0.0)
    active = (lb == ub) | (x - lb <= tol) | (ub - x <= tol)
    free = np.flatnonzero(~active)
    if free.size != lp.n_rows:
        return None
    # x_A at its nearer bound, zeros on I, so A x_pol is A_A x_A.
    x_pol = np.where(active, np.where(x - lb <= ub - x, lb, ub), 0.0)
    a_free = a.tocsc()[:, free]
    with single_blas_thread():
        try:
            lu = splu(a_free)
        except RuntimeError:  # exactly singular
            return None
        x_pol[free] = lu.solve(b - a @ x_pol)
        lam = lu.solve(-c[free], trans="T")
    if not (np.all(np.isfinite(x_pol)) and np.all(np.isfinite(lam))):
        return None
    if np.any(x_pol < lb) or np.any(x_pol > ub):
        return None
    if lp.equality_violation(x_pol) > POLISH_FEASIBILITY_TOL:
        return None
    d = c + a.T @ lam
    scale = np.abs(c[free]) + abs(a_free).T @ np.abs(lam)
    if np.any(np.abs(d[free]) > POLISH_REDUCED_COST_TOL * np.maximum(1.0, scale)):
        return None
    with np.errstate(invalid="ignore"):
        terms = np.where(d > 0, d * lb, np.where(d < 0, d * ub, 0.0))
    bound = float(np.sum(terms[active]) - lam @ b)
    objective = float(c @ x_pol)
    gap = (objective - bound) / max(1.0, abs(objective))
    if not gap <= POLISH_GAP_TOL:
        return None
    return ActiveSetCertificate(x=x_pol, objective=objective, bound=bound, gap=gap)


def _register_variables(net: DistributionNetwork) -> VariableIndex:
    """Register all global variables in the paper's ordering for (7)."""
    vi = VariableIndex()
    for gen in net.generators.values():
        for a, phi in enumerate(gen.phases):
            vi.add(("pg", gen.name, phi), gen.p_min[a], gen.p_max[a], cost=gen.cost)
            vi.add(("qg", gen.name, phi), gen.q_min[a], gen.q_max[a])
    for bus in net.buses.values():
        for a, phi in enumerate(bus.phases):
            vi.add(("w", bus.name, phi), bus.w_min[a], bus.w_max[a], is_voltage=True)
    for load in net.loads.values():
        for phi in load.bus_phases:
            vi.add(("pb", load.name, phi))
            vi.add(("qb", load.name, phi))
        for phi in load.phases:
            vi.add(("pd", load.name, phi))
            vi.add(("qd", load.name, phi))
    for line in net.lines.values():
        for a, phi in enumerate(line.phases):
            vi.add(("pf", line.name, phi), line.p_min[a], line.p_max[a])
            vi.add(("qf", line.name, phi), line.q_min[a], line.q_max[a])
            vi.add(("pt", line.name, phi), line.p_min[a], line.p_max[a])
            vi.add(("qt", line.name, phi), line.q_min[a], line.q_max[a])
    return vi


def build_rows(net: DistributionNetwork) -> list[Row]:
    """All equality rows of the model: balance (3), loads (4), flows (5)."""
    rows: list[Row] = []
    for bus_name in net.buses:
        rows.extend(balance_rows(net, bus_name))
    for load in net.loads.values():
        rows.extend(load_rows(load))
    for line in net.lines.values():
        rows.extend(flow_rows(line))
    return rows


def build_centralized_lp(net: DistributionNetwork, validate: bool = True) -> CentralizedLP:
    """Assemble the centralized LP (7) from a network model.

    Parameters
    ----------
    net:
        The network; must pass :meth:`DistributionNetwork.validate`.
    validate:
        Set to False to skip re-validation (e.g. inside tight loops).

    Raises
    ------
    FormulationError
        If the network has no generation (the LP would be trivially
        infeasible under any positive load).
    """
    if validate:
        net.validate()
    if not net.generators:
        raise FormulationError(f"network {net.name!r} has no generators")
    vi = _register_variables(net)
    rows = build_rows(net)
    a, b = rows_to_matrix(rows, vi)
    return CentralizedLP(
        network=net,
        var_index=vi,
        rows=rows,
        a_matrix=a,
        b_vector=b,
        cost=vi.costs(),
        lb=vi.lower_bounds(),
        ub=vi.upper_bounds(),
    )
