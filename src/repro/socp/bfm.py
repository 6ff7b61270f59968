"""Single-phase branch-flow SOCP relaxation (the paper's future work).

The paper's conclusion names "a GPU-accelerated distributed optimization
algorithm specifically tailored for the convex relaxation of the multi-phase
OPF model" as future work.  This module builds that relaxation for the
positive-sequence (single-phase) equivalent of a radial feeder — the
classical Baran-Wu branch-flow model with the SOC relaxation of the current
equation:

    variables per directed line e = (i -> j):  P_e, Q_e (sending end),
        le_e = ell_e / 2 (HALF the squared current — this scaling puts the
        current constraint in the isometric rotated-cone normal form
        ``2 le w >= P^2 + Q^2`` whose Euclidean projection is closed form,
        see :mod:`repro.socp.cone`);  per bus: w_i;  per generator: pg, qg.

    balance at j:   P_e - 2 r le_e + sum_gen pg = sum_children P_c
                        + p_load(w_j) + g_sh w_j                (real)
                    (reactive analogously, with -b_sh w_j)
    voltage drop:   w_j = w_i - 2 (r P + x Q) + 2 (r^2 + x^2) le
    cone:           P^2 + Q^2 <= 2 le * w_i      (rotated SOC, relaxed)

The linear rows carry component owners exactly like the LP formulation, so
the conic decomposition is again a pure regrouping; the cones become their
own single-constraint components with closed-form projections
(:mod:`repro.socp.cone`) — preserving the paper's solver-free property.

ZIP loads are folded into the balance rows (they are affine in ``w``);
multi-phase feeders are reduced by positive-sequence aggregation
(:func:`positive_sequence_impedance`, per-bus load totals).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.formulation.centralized import bound_violation, equality_violation
from repro.formulation.rows import Row, rows_to_matrix
from repro.formulation.variables import VariableIndex
from repro.network.components import Line
from repro.network.network import DistributionNetwork
from repro.utils.exceptions import FormulationError

PHASE = 1  # single-phase variables reuse the phase slot with a constant


@dataclass(frozen=True)
class ConeSpec:
    """One rotated-SOC membership ``2 le w >= P^2 + Q^2`` over the keys
    ``(le, w_at_from_bus, P, Q)``."""

    line: str
    u_key: tuple  # ("le", line, PHASE)
    v_key: tuple  # ("w", from_bus, PHASE)
    w_keys: tuple  # (("pf", line, PHASE), ("qf", line, PHASE))


@dataclass
class ConicProblem:
    """The assembled SOCP: linear rows + bounds + cone memberships."""

    network: DistributionNetwork
    var_index: VariableIndex
    rows: list[Row]
    cones: list[ConeSpec]
    cost: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    orientation: dict[str, tuple[str, str]]  # line -> (parent bus, child bus)

    @property
    def n_vars(self) -> int:
        return self.var_index.n

    def linear_system(self):
        """Dense-check helper: (A, b) of the linear equality rows."""
        return rows_to_matrix(self.rows, self.var_index)

    @cached_property
    def _linear(self):
        """:meth:`linear_system`, assembled once for the violation report."""
        return self.linear_system()

    def equality_violation(self, x: np.ndarray) -> float:
        """Infinity norm of ``A x - b`` over the linear rows at ``x``."""
        return equality_violation(*self._linear, x)

    def bound_violation(self, x: np.ndarray) -> float:
        return bound_violation(x, self.lb, self.ub)

    def primal_violation(self, x: np.ndarray) -> float:
        """The largest of :meth:`equality_violation`,
        :meth:`bound_violation` and :meth:`cone_violation`.

        The cone term is part of feasibility here: an ADMM answer meets
        its linear rows to rounding well before its cones converge.
        """
        return max(
            self.equality_violation(x),
            self.bound_violation(x),
            self.cone_violation(x),
        )

    def cone_violation(self, x: np.ndarray) -> float:
        """Worst cone violation ``max(0, P^2 + Q^2 - 2 le w)`` over lines."""
        worst = 0.0
        vi = self.var_index
        for cone in self.cones:
            le = x[vi.index(cone.u_key)]
            w = x[vi.index(cone.v_key)]
            p = x[vi.index(cone.w_keys[0])]
            q = x[vi.index(cone.w_keys[1])]
            worst = max(worst, p * p + q * q - 2.0 * le * w)
        return float(worst)

    def squared_current(self, x: np.ndarray, line: str) -> float:
        """Physical squared current magnitude ``ell = 2 le`` of a line."""
        return 2.0 * float(x[self.var_index.index(("le", line, PHASE))])

    def cone_slack(self, x: np.ndarray) -> np.ndarray:
        """Per-line relaxation slack ``2 le w - (P^2 + Q^2)`` (tightness
        diagnostics: ~0 means the relaxation is exact on that line)."""
        vi = self.var_index
        out = np.empty(len(self.cones))
        for k, cone in enumerate(self.cones):
            le = x[vi.index(cone.u_key)]
            w = x[vi.index(cone.v_key)]
            p = x[vi.index(cone.w_keys[0])]
            q = x[vi.index(cone.w_keys[1])]
            out[k] = 2.0 * le * w - (p * p + q * q)
        return out

    def objective(self, x: np.ndarray) -> float:
        return float(self.cost @ x)

    def initial_point(self) -> np.ndarray:
        return self.var_index.initial_point()


def positive_sequence_impedance(line: Line) -> tuple[float, float]:
    """Positive-sequence (r1, x1) of a multi-phase series element.

    For a full matrix: mean(self) - mean(mutual); degenerates to the single
    self term for one-phase elements.
    """
    n = line.n_phases
    r_self = float(np.mean(np.diag(line.r)))
    x_self = float(np.mean(np.diag(line.x)))
    if n == 1:
        return r_self, x_self
    off = ~np.eye(n, dtype=bool)
    return r_self - float(np.mean(line.r[off])), x_self - float(np.mean(line.x[off]))


def _oriented_tree(net: DistributionNetwork) -> dict[str, tuple[str, str]]:
    """Orient every line parent->child away from the substation."""
    if net.substation is None:
        raise FormulationError("SOCP build requires a designated substation")
    net.validate(require_radial=True)
    orientation: dict[str, tuple[str, str]] = {}
    visited = {net.substation}
    frontier = [net.substation]
    while frontier:
        bus = frontier.pop()
        for line in net.lines_at(bus):
            other = line.to_bus if line.from_bus == bus else line.from_bus
            if other in visited:
                continue
            orientation[line.name] = (bus, other)
            visited.add(other)
            frontier.append(other)
    return orientation


def build_bfm_socp(
    net: DistributionNetwork,
    le_max: float = 100.0,
    flow_limit: float | None = None,
    le_cost: float = 1e-6,
) -> ConicProblem:
    """Assemble the single-phase branch-flow SOCP for a radial feeder.

    Parameters
    ----------
    le_max:
        Upper bound on the half-squared-current variables (needed so the
        global clip step has a box to project onto).
    flow_limit:
        Optional override of the per-line |P|,|Q| bound; defaults to each
        line's own phase-1 limit.
    le_cost:
        Tiny objective weight on the squared-current variables.  On lines
        with (near-)zero resistance ``le`` is otherwise a cost-free flat
        direction inside its box, which stalls ADMM's dual residual; the
        epsilon regularization pins ``le`` to the cone surface (standard
        practice for branch-flow relaxations) while perturbing the optimum
        by O(le_cost).
    """
    orientation = _oriented_tree(net)
    vi = VariableIndex()

    for gen in net.generators.values():
        # Aggregate the per-phase box into a single-phase equivalent.
        vi.add(("pg", gen.name, PHASE), float(gen.p_min.sum()), float(gen.p_max.sum()),
               cost=gen.cost)
        vi.add(("qg", gen.name, PHASE), float(gen.q_min.sum()), float(gen.q_max.sum()))
    for bus in net.buses.values():
        vi.add(
            ("w", bus.name, PHASE),
            float(bus.w_min.max()),
            float(bus.w_max.min()),
            is_voltage=True,
        )
    impedance: dict[str, tuple[float, float]] = {}
    for line in net.lines.values():
        limit = flow_limit if flow_limit is not None else float(line.p_max[0])
        vi.add(("pf", line.name, PHASE), -limit, limit)
        vi.add(("qf", line.name, PHASE), -limit, limit)
        vi.add(("le", line.name, PHASE), 0.0, le_max, cost=le_cost, init=0.0)
        impedance[line.name] = positive_sequence_impedance(line)

    # Aggregate ZIP loads per bus: p_load(w) = const + slope * w.
    p_const: dict[str, float] = {}
    p_slope: dict[str, float] = {}
    q_const: dict[str, float] = {}
    q_slope: dict[str, float] = {}
    for load in net.loads.values():
        a = float(load.p_ref.sum())
        b = float(load.q_ref.sum())
        alpha = float(load.alpha.mean())
        beta = float(load.beta.mean())
        p_const[load.bus] = p_const.get(load.bus, 0.0) + a * (1.0 - alpha / 2.0)
        p_slope[load.bus] = p_slope.get(load.bus, 0.0) + a * alpha / 2.0
        q_const[load.bus] = q_const.get(load.bus, 0.0) + b * (1.0 - beta / 2.0)
        q_slope[load.bus] = q_slope.get(load.bus, 0.0) + b * beta / 2.0

    children: dict[str, list[str]] = {b: [] for b in net.buses}
    parent_line: dict[str, str] = {}
    for name, (i, j) in orientation.items():
        children[i].append(name)
        parent_line[j] = name

    rows: list[Row] = []
    for bus in net.buses.values():
        name = bus.name
        owner = ("bus", name)
        p_coeffs: dict = {}
        q_coeffs: dict = {}
        shunt_g = float(bus.g_sh.sum())
        shunt_b = float(bus.b_sh.sum())
        # Downstream sends.
        for c in children[name]:
            p_coeffs[("pf", c, PHASE)] = 1.0
            q_coeffs[("qf", c, PHASE)] = 1.0
        # Load voltage terms + shunts.
        p_coeffs[("w", name, PHASE)] = p_slope.get(name, 0.0) + shunt_g
        q_coeffs[("w", name, PHASE)] = q_slope.get(name, 0.0) - shunt_b
        # Arrival from the parent line.
        if name in parent_line:
            e = parent_line[name]
            r, x = impedance[e]
            p_coeffs[("pf", e, PHASE)] = p_coeffs.get(("pf", e, PHASE), 0.0) - 1.0
            p_coeffs[("le", e, PHASE)] = 2.0 * r
            q_coeffs[("qf", e, PHASE)] = q_coeffs.get(("qf", e, PHASE), 0.0) - 1.0
            q_coeffs[("le", e, PHASE)] = 2.0 * x
        # Generation.
        for gen in net.generators_at(name):
            p_coeffs[("pg", gen.name, PHASE)] = -1.0
            q_coeffs[("qg", gen.name, PHASE)] = -1.0
        rows.append(
            Row(p_coeffs, -p_const.get(name, 0.0), owner, tag=f"bfm-p:{name}")
        )
        rows.append(
            Row(q_coeffs, -q_const.get(name, 0.0), owner, tag=f"bfm-q:{name}")
        )

    cones: list[ConeSpec] = []
    for name, (i, j) in orientation.items():
        r, x = impedance[name]
        rows.append(
            Row(
                {
                    ("w", j, PHASE): 1.0,
                    ("w", i, PHASE): -1.0,
                    ("pf", name, PHASE): 2.0 * r,
                    ("qf", name, PHASE): 2.0 * x,
                    ("le", name, PHASE): -2.0 * (r * r + x * x),
                },
                0.0,
                ("line", name),
                tag=f"bfm-vdrop:{name}",
            )
        )
        cones.append(
            ConeSpec(
                line=name,
                u_key=("le", name, PHASE),
                v_key=("w", i, PHASE),
                w_keys=(("pf", name, PHASE), ("qf", name, PHASE)),
            )
        )

    return ConicProblem(
        network=net,
        var_index=vi,
        rows=rows,
        cones=cones,
        cost=vi.costs(),
        lb=vi.lower_bounds(),
        ub=vi.upper_bounds(),
        orientation=orientation,
    )
