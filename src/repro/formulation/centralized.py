"""Centralized multi-phase linearized OPF assembly (paper eq. (7)).

:func:`build_centralized_lp` turns a :class:`DistributionNetwork` into the
abstract LP

    min c^T x   s.t.   A x = b,   x_lb <= x <= x_ub

with the global variable ordering of (7): generation, squared voltages, load
variables, then directed line flows.  The produced :class:`CentralizedLP`
also keeps the symbolic :class:`~repro.formulation.rows.Row` list with
component ownership tags, which the decomposition package regroups into
component subproblems without re-deriving any constraint.

:func:`register_network` and :func:`tagged_rows` are the one copy of that
registration and row set: the multi-period and two-stage expansions call
them once per period or scenario, with a tag (``"@t3"``, ``"@s2"``) on
every name, and are :class:`CentralizedLP` subclasses themselves.

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


def equality_violation(a, b: np.ndarray, x: np.ndarray) -> float:
    """Infinity norm of ``a x - b`` (0 with no rows)."""
    return float(np.max(np.abs(a @ x - b))) if b.size else 0.0


def bound_violation(x: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> float:
    """Largest distance of an entry of ``x`` below ``lb`` or above ``ub``."""
    return float(
        max(
            np.max(np.maximum(lb - x, 0.0), initial=0.0),
            np.max(np.maximum(x - ub, 0.0), initial=0.0),
        )
    )


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
    #: Cone-free: :func:`~repro.socp.solver.decompose_conic` takes any LP
    #: and yields linear components only.
    cones = ()

    @classmethod
    def assemble(cls, network, var_index: VariableIndex, rows: list[Row], **fields):
        """The LP over ``var_index``'s columns and ``rows``; ``fields``
        fill a subclass's own fields."""
        a, b = rows_to_matrix(rows, var_index)
        return cls(
            network=network,
            var_index=var_index,
            rows=rows,
            a_matrix=a,
            b_vector=b,
            cost=var_index.costs(),
            lb=var_index.lower_bounds(),
            ub=var_index.upper_bounds(),
            **fields,
        )

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

    @property
    def degrees_of_freedom(self) -> int:
        """Columns minus rows minus fixed (``lb == ub``) columns.

        When ``A`` stacked on the fixed columns' unit rows has full row
        rank (it does on every builtin feeder) this is the dimension of
        the set the equalities and fixed columns leave; 0 means the LP
        has at most one feasible point.
        """
        return self.n_vars - self.n_rows - int(np.count_nonzero(self.lb == self.ub))

    def initial_point(self) -> np.ndarray:
        return self.var_index.initial_point()

    def objective(self, x: np.ndarray) -> float:
        return float(self.cost @ x)

    def equality_violation(self, x: np.ndarray) -> float:
        """Infinity norm of ``A x - b`` at ``x``."""
        return equality_violation(self.a_matrix, self.b_vector, x)

    def bound_violation(self, x: np.ndarray) -> float:
        return bound_violation(x, self.lb, self.ub)

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


def register_network(
    vi: VariableIndex,
    net: DistributionNetwork,
    tag: str = "",
    pg_cost=None,
    shared=(),
) -> None:
    """Register one copy of ``net``'s variables in the ordering of (7).

    ``tag`` is appended to every key's name (``"@t3"`` for a period,
    ``"@s2"`` for a scenario).  ``pg_cost(gen)`` prices active generation
    (default ``gen.cost``).  The ``pg`` columns of the generators named in
    ``shared`` are left to the caller, which registers them once for all
    copies.
    """
    for gen in net.generators.values():
        nm = gen.name + tag
        cost = gen.cost if pg_cost is None else pg_cost(gen)
        for a, phi in enumerate(gen.phases):
            if gen.name not in shared:
                vi.add(("pg", nm, phi), gen.p_min[a], gen.p_max[a], cost=cost)
            vi.add(("qg", nm, phi), gen.q_min[a], gen.q_max[a])
    for bus in net.buses.values():
        nm = bus.name + tag
        for a, phi in enumerate(bus.phases):
            vi.add(("w", nm, phi), bus.w_min[a], bus.w_max[a], is_voltage=True)
    for load in net.loads.values():
        nm = load.name + tag
        for phi in load.bus_phases:
            vi.add(("pb", nm, phi))
            vi.add(("qb", nm, phi))
        for phi in load.phases:
            vi.add(("pd", nm, phi))
            vi.add(("qd", nm, phi))
    for line in net.lines.values():
        nm = line.name + tag
        for a, phi in enumerate(line.phases):
            vi.add(("pf", nm, phi), line.p_min[a], line.p_max[a])
            vi.add(("qf", nm, phi), line.q_min[a], line.q_max[a])
            vi.add(("pt", nm, phi), line.p_min[a], line.p_max[a])
            vi.add(("qt", nm, phi), line.q_min[a], line.q_max[a])


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


def tagged_rows(net: DistributionNetwork, tag: str, shared=()) -> list[Row]:
    """:func:`build_rows` of ``net`` with ``tag`` on every key name, owner
    name and row tag, except the ``pg`` keys of the ``shared`` generators
    (the columns :func:`register_network` leaves to its caller)."""

    def key(k):
        return k if k[0] == "pg" and k[1] in shared else (k[0], k[1] + tag, k[2])

    return [
        Row(
            {key(k): c for k, c in row.coeffs.items()},
            row.rhs,
            (row.owner[0], row.owner[1] + tag),
            tag=row.tag + tag,
        )
        for row in build_rows(net)
    ]


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
    vi = VariableIndex()
    register_network(vi, net)
    return CentralizedLP.assemble(net, vi, build_rows(net))
