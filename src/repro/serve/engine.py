"""The scenario-serving engine: per-topology plans and stacked batch solves.

Two layers:

:class:`TopologyPlan`
    Everything computable *once per topology*: the base network, the
    assembled LP, the partition/row-ownership map of Section V-A, and one
    **base projection** ``(M_s, bbar_s)`` (15b)-(15c) per component, as
    the paper computes each projection once (Algorithm 1, lines 2-3).  A
    scenario perturbs load references (which changes some components'
    local systems ``A_s x = b_s``) and generator bounds (which changes
    nothing but the box (9d)).  On the LP rungs the plan builds a scenario
    parametrically: it writes the touched loads' consumption rows and
    generators' bounds into copies of its base arrays and re-factorizes
    *only* the components those loads sit in, keeping nothing — line
    components and unloaded buses take their base projections.

:class:`ScenarioEngine`
    The serving loop: bounded-queue submission (backpressure), same-topology
    batch grouping, warm-start seeding from the LRU cache, and one **stacked
    ADMM solve per batch**.  The K scenarios of a batch are independent, so
    their union is itself a valid consensus problem — the batch runs the
    rung's own strategy (:func:`~repro.methods.make_method_solver` over a
    :class:`~repro.core.consensus.ScenarioStack`), whose batched-projection
    width buckets hold the components of *all* scenarios: one padded
    batched matmul per width serves the whole group, which is exactly the
    amortization the paper's batched kernels exploit (and what the modeled
    GPU timing in the metrics accounts).  The engine adds only a serving
    hook: per-scenario retirement, NaN isolation, solution snapshots and
    the certified active-set polish of linearized scenarios.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from repro.backend import resolve_backend
from repro.core.batch import projection_data
from repro.core.config import ADMMConfig
from repro.core.consensus import ScenarioStack
from repro.core.loop import ADMMLoop
from repro.decomposition.rowreduce import reduced_row_echelon
from repro.formulation import (
    ActiveSetCertificate,
    CentralizedLP,
    certify_active_set,
    consumption_rows,
)
from repro.formulation.rows import rows_to_dense_local
from repro.gpu.costmodel import iteration_times_from_sizes
from repro.gpu.device import A100, DeviceSpec
from repro.gpu.kernel_sim import simulate_local_update
from repro.io.resolve import resolve_feeder
from repro.methods.facade import (
    METHOD_SPECS,
    Method,
    MethodProblem,
    build_method_problem,
    make_method_solver,
)
from repro.methods.reference import solve_reference_socp
from repro.reference import solve_reference
from repro.socp.bfm import build_bfm_socp
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.policy import CircuitBreaker, CircuitOpenError, ResilienceConfig
from repro.serve.metrics import ServingMetrics
from repro.serve.requests import (
    STATUS_CONVERGED,
    STATUS_ERROR,
    STATUS_ITERATION_LIMIT,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    MultiPeriodRequest,
    MultiPeriodResponse,
    OPFRequest,
    OPFResponse,
    StochasticRequest,
    StochasticResponse,
)
from repro.serve.scheduler import BatchScheduler, BoundedRequestQueue, QueueFullError
from repro.serve.warmstart import WarmStartCache
from repro.telemetry import NULL_TRACER
from repro.utils.exceptions import FormulationError, InfeasibleError
from repro.utils.timing import PhaseTimer, Timer

#: Thread count per block used for the modeled local-update kernel spans.
KERNEL_SIM_THREADS = 64

#: Engine config of the stacked batch solves.  Per-request options replace
#: the usual hyper-parameters, so only the control-flow flags matter:
#: ``raise_on_max_iter`` stays off (budget exhaustion is an
#: ``iteration_limit`` status, never an exception) and so does the
#: divergence guard, in favor of the hook's per-scenario NaN isolation.
_STACKED_CONFIG = ADMMConfig(record_history=False, divergence_guard=False)


@dataclass
class ScenarioProblem:
    """A fully assembled scenario: perturbed LP + per-component systems.

    ``lp`` (linearized/qp scenarios) or ``conic`` (socp scenarios) is
    retained for the graceful-degradation path: when the batched ADMM
    solve of this scenario diverges and retries run out, the engine falls
    back to a centralized reference solve of exactly this model — HiGHS
    on the LP, or the HiGHS cutting-plane loop on the conic problem.
    Arrays the request did not change are the plan's read-only base
    arrays.
    """

    request: OPFRequest
    cost: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    x0_default: np.ndarray
    projections: list[tuple[np.ndarray, np.ndarray]]
    signature: np.ndarray
    lp: object = None
    conic: object = None

    @property
    def model(self):
        """The scenario's model: ``lp``, or ``conic`` on the socp rung."""
        return self.lp if self.lp is not None else self.conic


@dataclass(frozen=True)
class _LoadRow:
    """Where one ZIP consumption row of a load sits in a plan's base LP."""

    row: int  # position in ``lp.rows`` and ``lp.b_vector``
    component: int
    local_row: int  # row of the component's raw system
    cells: dict  # variable key -> (CSR data slot, local column)


class TopologyPlan:
    """Precomputed, shareable solve structure for one (topology, method) key.

    The plan's identity is the request's :meth:`~repro.serve.requests.
    OPFRequest.topology_key`, which hashes the feeder *and* the method —
    each fidelity rung builds a different decomposition of the same
    network, and their local data must never mix (a linearized projection
    plan is meaningless to the conic layout).

    Each component's **base local data** is taken once from the plan's own
    decomposition: ``(M, bbar)`` batched projections on ``linearized`` and
    on ``socp``'s linear components, the reduced ``(A, b)`` rows on ``qp``
    (the box-QP projection needs the explicit rows).  A scenario takes a
    component's base pair whenever its raw system ``(A_raw, b_raw)`` is
    the base's byte for byte, and otherwise factorizes it afresh and
    keeps nothing, so a plan holds one pair per component however many
    requests it serves.  :attr:`factorizations_computed` and
    :attr:`factorizations_reused` count those two outcomes per component
    and request.

    * ``linearized`` / ``qp`` share the LP (7) decomposition and build a
      scenario **parametrically**: at plan time they record where each
      load's ZIP consumption rows sit in the base LP (CSR data slots,
      ``b`` entries, component raw-system cells) and each generator's
      ``pg`` columns.  A request then writes its touched loads'
      regenerated rows and its generators' bounds into copies, and
      compares and re-reduces only the components those loads sit in.
    * ``socp`` builds the branch-flow conic model: linear components plus
      width-4 cone blocks (cone projections have no factorization).  Its
      bus balance rows sum every load at a bus, so a load owns no entry
      of its own: each scenario rebuilds the model and compares every
      linear component's raw system with the base's, recorded at plan
      build.

    The base arrays every scenario shares (the LP's, the raw systems and
    the base local data) are read-only.
    """

    def __init__(self, feeder: str, method: str = "linearized"):
        self.feeder = feeder
        self.method = Method.parse(method).value
        self.net = resolve_feeder(feeder)
        self.problem = build_method_problem(self.net, self.method)
        dec = self.dec = self.problem.dec
        self.n_vars = self.problem.n_vars
        self.n_local = dec.n_local
        # Cost-model widths: components (and 4-wide cone blocks).
        self.sizes = self.problem.component_sizes
        # Row ownership of the base partition; scenario rebuilds reuse it
        # (perturbations never add/remove components or rows).
        self._owner_to_spec: dict[tuple, int] = {}
        if self.method == "socp":
            # decompose_conic's first-seen owner order.
            for row in self.problem.conic.rows:
                self._owner_to_spec.setdefault(row.owner, len(self._owner_to_spec))
            local_comps = dec.linear
        else:
            for idx, spec in enumerate(dec.specs):
                for owner in spec.owners():
                    self._owner_to_spec[owner] = idx
            local_comps = dec.components
        self._local_keys = [c.local_keys for c in local_comps]
        if self.method == "socp":
            self._base_raw = self._conic_systems(self.problem.conic)
        else:
            self._base_raw = [(c.a_raw, c.b_raw) for c in local_comps]
            self._record_base()
        #: Each component's base local data, shared by every scenario.
        self.base_local = [self._method_pair(c.a, c.b) for c in local_comps]
        for pair in self._base_raw + self.base_local:
            for arr in pair:
                arr.flags.writeable = False
        self.factorizations_computed = 0
        self.factorizations_reused = 0

    def _record_base(self) -> None:
        """Record where the request-dependent entries of the base LP sit."""
        lp, comps = self.dec.lp, self.dec.components
        a = lp.a_matrix
        local_row: list[tuple[int, int]] = []
        rows_in = [0] * len(comps)
        for row in lp.rows:
            s = self._owner_to_spec[row.owner]
            local_row.append((s, rows_in[s]))
            rows_in[s] += 1
        row_of = {row.tag: i for i, row in enumerate(lp.rows)}
        local_col = [{k: j for j, k in enumerate(keys)} for keys in self._local_keys]
        self._load_rows: dict[str, list[_LoadRow]] = {}
        for name, load in self.net.loads.items():
            slots = []
            for row in consumption_rows(load):
                i = row_of[row.tag]
                s, r = local_row[i]
                cells = {}
                for slot in range(a.indptr[i], a.indptr[i + 1]):
                    key = lp.var_index.key_of(int(a.indices[slot]))
                    cells[key] = (slot, local_col[s][key])
                slots.append(_LoadRow(i, s, r, cells))
            self._load_rows[name] = slots
        self._gen_cols = {
            name: np.array(
                [lp.var_index.index(("pg", name, phi)) for phi in gen.phases],
                dtype=np.int64,
            )
            for name, gen in self.net.generators.items()
        }
        self._x0 = lp.initial_point()
        # Every scenario shares these (or writes copies): freeze them so a
        # stray in-place write fails loudly instead of corrupting the plan.
        for arr in (a.data, a.indices, a.indptr, lp.b_vector, lp.cost, lp.lb, lp.ub, self._x0):
            arr.flags.writeable = False

    # ------------------------------------------------------------------
    def _perturbed_network(self, request: OPFRequest):
        """The plan's network with ``request`` applied, plus the names of
        the loads and generators it touched.

        A shallow copy: buses and lines are the plan's objects, and only
        the touched loads and generators are copies, so the plan's network
        never changes.
        """
        base = self.net
        unknown = set(request.load_multipliers) - set(base.loads)
        if unknown:
            raise ValueError(f"unknown loads in multipliers: {sorted(unknown)}")
        loads = dict(base.loads)
        touched_loads = []
        for name, load in base.loads.items():
            scale = request.load_scale * request.load_multipliers.get(name, 1.0)
            if scale != 1.0:
                load = loads[name] = copy.copy(load)
                load.p_ref = load.p_ref * scale
                load.q_ref = load.q_ref * scale
                touched_loads.append(name)
        generators = dict(base.generators)
        touched_gens: dict = {}

        def touch(name: str, field: str):
            gen = touched_gens.get(name)
            if gen is None:
                try:
                    gen = copy.copy(base.generators[name])
                except KeyError:
                    raise ValueError(f"unknown generator {name!r} in {field}") from None
                gen.p_min = gen.p_min.copy()
                gen.p_max = gen.p_max.copy()
                touched_gens[name] = generators[name] = gen
            return gen

        for name, setpoint in request.der_setpoints.items():
            gen = touch(name, "der_setpoints")
            gen.p_min[:] = setpoint
            gen.p_max[:] = setpoint
        for name, (p_min, p_max) in request.gen_limits.items():
            gen = touch(name, "gen_limits")
            if p_min is not None:
                gen.p_min[:] = p_min
            if p_max is not None:
                gen.p_max[:] = p_max
            if np.any(gen.p_min > gen.p_max):
                raise ValueError(f"generator {name!r}: p_min exceeds p_max")
        # The adjacency cache indexes the base network's dicts.
        net = replace(base, loads=loads, generators=generators, _adjacency=None)
        return net, touched_loads, list(touched_gens)

    def _signature(self, net) -> np.ndarray:
        """The scenario parameter vector warm-start distance runs on."""
        parts = []
        for name in sorted(net.loads):
            load = net.loads[name]
            parts.append(load.p_ref)
            parts.append(load.q_ref)
        for name in sorted(net.generators):
            gen = net.generators[name]
            parts.append(gen.p_min)
            parts.append(gen.p_max)
        return np.concatenate(parts) if parts else np.zeros(0)

    def build_scenario(self, request: OPFRequest) -> ScenarioProblem:
        """Assemble one scenario on the plan's base local data.

        Raises
        ------
        ValueError
            If the request references unknown loads/generators or sets
            inconsistent limits.
        """
        net, loads, gens = self._perturbed_network(request)
        if self.method == "socp":
            return self._rebuilt_conic_scenario(request, net)
        lp, systems = self._scenario_lp(net, loads, gens)
        projections = list(self.base_local)
        self.factorizations_reused += len(projections) - len(systems)
        for s, system in systems.items():
            projections[s] = self._local_data(s, *system)
        return ScenarioProblem(
            request=request,
            cost=lp.cost,
            lb=lp.lb,
            ub=lp.ub,
            x0_default=lp.initial_point() if gens else self._x0,
            projections=projections,
            signature=self._signature(net),
            lp=lp,
        )

    def _scenario_lp(self, net, loads: list[str], gens: list[str]):
        """The base LP with the touched loads' consumption rows and the
        touched generators' bounds written into copies of its arrays;
        returns it and the rewritten raw systems by component."""
        base = self.dec.lp
        rows = list(base.rows)
        data = base.a_matrix.data.copy()
        b = base.b_vector.copy()
        systems: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        dropped = False
        for name in loads:
            for row, at in zip(consumption_rows(net.loads[name]), self._load_rows[name]):
                if not row.coeffs.keys() <= at.cells.keys():
                    raise ValueError(f"row {row.tag!r} leaves the base sparsity pattern")
                rows[at.row] = row
                b[at.row] = row.rhs
                system = systems.get(at.component)
                if system is None:
                    comp = self.dec.components[at.component]
                    system = systems[at.component] = (comp.a_raw.copy(), comp.b_raw.copy())
                a_raw, b_raw = system
                b_raw[at.local_row] = row.rhs
                for key, (slot, col) in at.cells.items():
                    value = row.coeffs.get(key)
                    if value is None:  # Row dropped a zero coefficient
                        value = 0.0
                        dropped = True
                    data[slot] = value
                    a_raw[at.local_row, col] = value
        a = sp.csr_matrix(
            (data, base.a_matrix.indices.copy(), base.a_matrix.indptr.copy()),
            shape=base.a_matrix.shape,
        )
        if dropped:
            a.eliminate_zeros()
        var_index, lb, ub = base.var_index, base.lb, base.ub
        if gens:
            lb, ub = lb.copy(), ub.copy()
            for name in gens:
                gen, cols = net.generators[name], self._gen_cols[name]
                lb[cols] = gen.p_min
                ub[cols] = gen.p_max
            var_index = var_index.with_bounds(lb, ub)
        lp = CentralizedLP(
            network=net,
            var_index=var_index,
            rows=rows,
            a_matrix=a,
            b_vector=b,
            cost=base.cost,
            lb=lb,
            ub=ub,
        )
        return lp, systems

    def _rebuilt_conic_scenario(self, request: OPFRequest, net) -> ScenarioProblem:
        """A socp scenario: loads re-enter through the rebuilt branch-flow
        model's bus balance rows and bounds; the cone blocks are structural."""
        model = build_bfm_socp(net, **METHOD_SPECS[Method.SOCP].build_kwargs)
        if model.n_vars != self.n_vars:
            raise ValueError("scenario changed the variable space (topology?)")
        projections = [
            self._local_data(s, *system)
            for s, system in enumerate(self._conic_systems(model))
        ]
        return ScenarioProblem(
            request=request,
            cost=model.cost,
            lb=model.lb,
            ub=model.ub,
            x0_default=model.initial_point(),
            projections=projections,
            signature=self._signature(net),
            conic=model,
        )

    def _conic_systems(self, model) -> list[tuple[np.ndarray, np.ndarray]]:
        """The raw systems of a conic model's linear components: its rows
        grouped by the base partition's owners, densified on the base
        components' local keys."""
        rows_by_spec: list[list] = [[] for _ in self._local_keys]
        for row in model.rows:
            rows_by_spec[self._owner_to_spec[row.owner]].append(row)
        return [
            rows_to_dense_local(rows, keys)
            for rows, keys in zip(rows_by_spec, self._local_keys)
        ]

    def _local_data(
        self, s: int, a_raw: np.ndarray, b_raw: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Component ``s``'s local pair for the raw system ``(a_raw, b_raw)``:
        the base pair when the system is the base's byte for byte, else a
        fresh one that the plan does not keep."""
        base_a, base_b = self._base_raw[s]
        if a_raw.tobytes() == base_a.tobytes() and b_raw.tobytes() == base_b.tobytes():
            self.factorizations_reused += 1
            return self.base_local[s]
        self.factorizations_computed += 1
        a_red, b_red, _ = reduced_row_echelon(a_raw, b_raw)
        return self._method_pair(a_red, b_red)

    def _method_pair(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The method's local data of a reduced system: its ``(M, bbar)``
        projection, or on ``qp`` the rows themselves."""
        return (a, b) if self.method == "qp" else projection_data(a, b)

    def stacked(self, problems: list[ScenarioProblem]) -> MethodProblem:
        """The K scenarios as one problem of this plan's method: a
        :class:`~repro.core.consensus.ScenarioStack` over the plan's
        decomposition, each scenario carrying its local data and its own
        rho."""
        stack = ScenarioStack(
            self.dec,
            cost=[p.cost for p in problems],
            lb=[p.lb for p in problems],
            ub=[p.ub for p in problems],
            x0=[p.x0_default for p in problems],
            local=[p.projections for p in problems],
            rho=np.array([p.request.options.rho for p in problems]),
        )
        return MethodProblem(self.problem.method, self.net, dec=stack)


@dataclass
class _BatchOutcome:
    responses: list[OPFResponse]
    iterations_run: int
    solve_seconds: float
    diverged: list[int] = None  # indices into the problems list

    def __post_init__(self) -> None:
        if self.diverged is None:
            self.diverged = []


def scenario_norms(xp, rows, k_n, bx, z, z_prev, lam):
    """Per-scenario norms of ``bx - z``, ``z - z_prev``, ``bx``, ``z`` and
    ``lam``, each stacked from ``k_n`` equal scenario slices, as a
    ``(5, k_n)`` array.

    ``rows`` is a ``(5, len(z))`` buffer in the accumulate dtype.  One
    squared sum over its rows gives the same bits as five row-wise
    ``linalg.norm`` calls on the ``(k_n, -1)`` reshapes.
    """
    xp.subtract(bx, z, out=rows[0])
    xp.subtract(z, z_prev, out=rows[1])
    rows[2] = bx
    rows[3] = z
    rows[4] = lam
    xp.multiply(rows, rows, out=rows)
    return xp.sqrt(xp.add.reduce(rows.reshape(5, k_n, -1), axis=2))


class _StackedStatus:
    """The residual view the iteration engine sees for a stacked batch:
    scalar aggregates for tracing plus ``converged`` = every scenario
    retired (converged, budget-exhausted, timed out or diverged)."""

    __slots__ = ("pres", "dres", "eps_prim", "eps_dual", "converged")

    def __init__(self, pres, dres, eps_prim, eps_dual, converged):
        self.pres = pres
        self.dres = dres
        self.eps_prim = eps_prim
        self.eps_dual = eps_dual
        self.converged = converged


class _ServingBatch:
    """The serving hook around one stacked batch solve.

    Wraps the rung strategy the :mod:`repro.methods` dispatch built over
    K same-topology scenarios.  The strategy owns every update rule (each
    scenario's rho rides in its stack as data); every attribute this hook
    does not define is the strategy's.  What serving adds is per-scenario
    termination: each scenario owns its eps_rel / budget / deadline,
    retires independently (its solution snapshot is frozen the iteration
    it finishes), and a non-finite iterate retires only its own slices,
    which are reset.  The batch loop runs with the divergence guard off,
    so isolation feeds the caller's retry/degradation policy instead of
    raising.  The chaos hook corrupts a target scenario's local iterate.

    Linearized scenarios whose ``SolveOptions.polish`` is on try the
    certified active-set polish at iterations 1, 2, 4, 8, ...; a certified
    scenario retires as converged and its polished point is kept, in host
    fp64, in :attr:`certificates`.
    """

    def __init__(self, engine: "ScenarioEngine", strategy, problems):
        self.strategy = strategy
        self.problems = problems
        self.injector = engine.injector if engine.injector else None
        k_n = len(problems)
        self.scenario_n = strategy.n // k_n
        self.scenario_n_local = strategy.n_local // k_n
        self.eps_k = np.array([p.request.options.eps_rel for p in problems])
        self.budget_k = np.array([p.request.options.max_iter for p in problems])
        # Per-scenario termination bookkeeping (host-side).
        self.done = np.zeros(k_n, dtype=bool)
        self.iters = np.zeros(k_n, dtype=np.int64)
        self.conv = np.zeros(k_n, dtype=bool)
        self.pres_at = np.full(k_n, np.inf)
        self.dres_at = np.full(k_n, np.inf)
        self.diverged = np.zeros(k_n, dtype=bool)
        self.timed_out = np.zeros(k_n, dtype=bool)
        self.snap_x = self.snap_z = self.snap_lam = None
        linearized = problems[0].request.method == "linearized"
        self.polish_k = np.array(
            [linearized and p.request.options.polish for p in problems], dtype=bool
        )
        self.certificates: dict[int, ActiveSetCertificate] = {}
        self._tracer = engine.tracer
        self._metrics = engine.metrics
        # Per-scenario absolute deadlines (submit-relative when known).
        deadline_at = np.full(k_n, np.inf)
        for k, p in enumerate(problems):
            d = p.request.options.deadline_s
            if d is not None:
                t0 = engine._submit_times.get(id(p.request))
                deadline_at[k] = (t0 if t0 is not None else time.perf_counter()) + d
        self.deadline_at = deadline_at
        self.has_deadline = bool(np.isfinite(deadline_at).any())
        self.check_every = engine.resilience.deadline_check_every
        self._iteration = 0
        # Rows bx - z, z - z_prev, bx, z, lam of the per-scenario norms.
        b = strategy.backend
        self._norm_rows = b.xp.empty((5, strategy.n_local), dtype=b.accumulate_dtype)

    def __getattr__(self, name):
        if name == "strategy":  # not yet bound: no delegation loop
            raise AttributeError(name)
        value = getattr(self.strategy, name)
        # Keep it here: the loop reads its hooks once per run, but this
        # batch's own hooks read the strategy's attributes every iteration,
        # and a batch's strategy does not change while it solves.  The
        # run's bound steps reach the loop through ``bind_workspace``'s
        # return value, never through here.
        setattr(self, name, value)
        return value

    def bind_state(self, x, z, lam) -> None:
        """Seed the solution snapshots from the initial state — the values
        reported for scenarios that never converge within budget."""
        self.snap_x = x.copy()
        self.snap_z = z.copy()
        self.snap_lam = lam.copy()

    # -- engine hooks ---------------------------------------------------
    def on_iteration_start(self, iteration: int, z, lam, rho):
        self._iteration = iteration
        return z, lam

    def local_step(self, bx_eff, z_prev, lam, rho):
        z = self.strategy.local_step(bx_eff, z_prev, lam, rho)
        injector = self.injector
        if injector is not None:
            # Chaos hook: seeded NaN corruption of a target scenario's
            # local iterate (the batched-kernel payload), applied to the
            # scenario's own slice only.
            injector.begin_iteration(self._iteration)
            n_local = self.scenario_n_local
            for k, p in enumerate(self.problems):
                if not self.done[k]:
                    injector.corrupt(
                        z[k * n_local : (k + 1) * n_local], p.request.request_id
                    )
        return z

    def residuals(self, iteration, x, bx, z, z_prev, lam, rho) -> _StackedStatus:
        """Per-scenario residuals of (16) plus the retirement bookkeeping:
        scenario-major slices reshape cleanly to (K, n_local)."""
        n, n_local = self.scenario_n, self.scenario_n_local
        host = self.backend.to_numpy
        norms = scenario_norms(
            self.backend.xp, self._norm_rows, len(self.problems), bx, z, z_prev, lam
        )
        pres = host(norms[0])
        dres = self.rho_k * host(norms[1])
        eps_prim = self.eps_k * host(self.backend.xp.maximum(norms[2], norms[3]))
        eps_dual = self.eps_k * host(norms[4])
        pres_max, dres_max = float(pres.max()), float(dres.max())
        done = self.done
        # Divergence isolation: a non-finite iterate retires its scenario
        # immediately (for retry/degradation by the caller) and its slices
        # are reset so no NaN survives into later iterations.  The maxima
        # propagate NaN, so finite maxima mean there is nothing to isolate.
        if not (math.isfinite(pres_max) and math.isfinite(dres_max)):
            bad = ~done & ~(np.isfinite(pres) & np.isfinite(dres))
            if bad.any():
                self.diverged |= bad
                done |= bad
                self.iters[bad] = iteration
                x0, z0, lam0 = self.strategy.initial_state()
                for k in np.flatnonzero(bad):
                    gs = slice(k * n, (k + 1) * n)
                    ls = slice(k * n_local, (k + 1) * n_local)
                    x[gs], z[ls], lam[ls] = x0[gs], z0[ls], lam0[ls]
        # Deadline sweep: cheap, so only every `check_every` iterations.
        if self.has_deadline and iteration % self.check_every == 0:
            late = ~done & (self.deadline_at < time.perf_counter())
            if late.any():
                self.timed_out |= late
                done |= late
                self.iters[late] = iteration
        converged_now = (pres <= eps_prim) & (dres <= eps_dual)
        if not iteration & (iteration - 1):  # a power of two
            polish = ~done & self.polish_k
            if polish.any():
                converged_now |= self._polish(x, polish)
        newly = ~done & (converged_now | (iteration >= self.budget_k))
        if newly.any():
            self.conv |= newly & converged_now
            self.iters[newly] = iteration
            self.pres_at[newly] = pres[newly]
            self.dres_at[newly] = dres[newly]
            for k in np.flatnonzero(newly):
                gs = slice(k * n, (k + 1) * n)
                ls = slice(k * n_local, (k + 1) * n_local)
                self.snap_x[gs], self.snap_z[ls], self.snap_lam[ls] = (
                    x[gs], z[ls], lam[ls],
                )
            done |= newly
        return _StackedStatus(
            pres=pres_max,
            dres=dres_max,
            eps_prim=float(eps_prim.min()),
            eps_dual=float(eps_dual.min()),
            converged=bool(done.all()),
        )

    def _polish(self, x, tried):
        """Try the active-set polish on the scenarios in mask ``tried``;
        returns the mask of those certified."""
        t0 = time.perf_counter()
        n = self.scenario_n
        certified = np.zeros_like(tried)
        for k in np.flatnonzero(tried):
            certificate = certify_active_set(
                self.problems[k].lp, self.backend.to_numpy(x[k * n : (k + 1) * n])
            )
            if certificate is not None:
                self.certificates[int(k)] = certificate
                certified[k] = True
        n_tried, n_certified = int(tried.sum()), int(certified.sum())
        self._metrics.record_polish(n_tried, n_certified)
        if self._tracer:
            self._tracer.add_complete(
                "serve.polish",
                t0,
                time.perf_counter(),
                cat="serve",
                args={"scenarios": n_tried, "certified": n_certified},
            )
        return certified


class ScenarioEngine:
    """Batched scenario-serving front end over the solver-free ADMM.

    Parameters
    ----------
    max_batch:
        Largest same-topology group dispatched as one stacked solve.
    queue_size:
        Bound of the request queue; submits beyond it are rejected.
    cache_capacity:
        Warm-start cache entries kept (LRU across topologies).
    device:
        Device spec used for the modeled batched-kernel iteration time
        reported in the metrics.
    tracer:
        Optional :class:`repro.telemetry.Tracer`.  When enabled, every
        serving stage becomes a span (queue wait, scenario build, batch
        stacking, warm-start lookup, the stacked ADMM solve with its
        per-iteration phases) and each batch additionally emits modeled
        GPU kernel spans on the ``gpu-modeled`` track via the kernel
        simulator.
    resilience:
        Hardening knobs (:class:`repro.resilience.ResilienceConfig`):
        retry-with-backoff for diverged scenarios, per-topology circuit
        breaker, graceful degradation to the reference LP, and the
        in-solve deadline sweep period.  Defaults to enabled with the
        standard settings; pass a config with
        ``breaker_failure_threshold=0`` / ``degrade_to_reference=False``
        to disable pieces.
    fault_plan:
        Optional seeded :class:`repro.resilience.FaultPlan` for chaos
        testing: ``NaNCorruption`` specs targeting a request id (or
        ``ANY_TARGET``) poison that scenario's local iterate mid-solve,
        exercising the divergence-guard/retry/degrade path
        deterministically.
    backend, precision:
        Array-execution backend (instance or registry name) and optional
        ``fp64`` / ``fp32`` / ``mixed`` precision overlay for the stacked
        solves — see :mod:`repro.backend`.  Defaults to the process
        default (``$REPRO_BACKEND`` or ``numpy64``).  Warm-start cache
        entries are stored as host fp64 regardless of the backend, so
        cached iterates re-seed any later precision.
    warm_start:
        When ``False`` the warm-start cache is bypassed entirely (no
        lookups, no stores): every scenario solves from the default cold
        start, making response trajectories independent of serving
        history.  The fleet's failover-equivalence tests rely on this to
        compare faulted and fault-free runs scenario-for-scenario.

    Examples
    --------
    >>> from repro.serve import OPFRequest, ScenarioEngine
    >>> engine = ScenarioEngine(max_batch=4)
    >>> for i in range(4):
    ...     _ = engine.submit(OPFRequest(request_id=f"s{i}", load_scale=1 + 0.01 * i))
    >>> responses = engine.run()
    >>> sorted(r.status for r in responses) == ["converged"] * 4
    True
    """

    def __init__(
        self,
        max_batch: int = 16,
        queue_size: int = 256,
        cache_capacity: int = 64,
        device: DeviceSpec = A100,
        tracer=None,
        resilience: ResilienceConfig | None = None,
        fault_plan: FaultPlan | None = None,
        backend=None,
        precision: str | None = None,
        warm_start: bool = True,
    ):
        self.backend = resolve_backend(backend, precision)
        self.warm_start = bool(warm_start)
        self.queue = BoundedRequestQueue(maxsize=queue_size)
        self.scheduler = BatchScheduler(self.queue, max_batch=max_batch)
        self.cache = WarmStartCache(capacity=cache_capacity, backend=self.backend)
        self.metrics = ServingMetrics(max_batch=max_batch)
        self.device = device
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self.injector = FaultInjector(fault_plan, self.metrics.registry)
        self.breakers: dict[str, CircuitBreaker] = {}
        self.plans: dict[str, TopologyPlan] = {}
        self.timers = PhaseTimer(
            registry=self.metrics.registry, prefix="serve.phase.", tracer=self.tracer
        )
        self._submit_times: dict[int, float] = {}
        self._batch_latency_ewma_s = 0.0
        self._modeled_clock_s = 0.0  # virtual-clock cursor of the GPU track

    # ------------------------------------------------------------------
    def plan_for(self, request: OPFRequest) -> TopologyPlan:
        key = request.topology_key()
        plan = self.plans.get(key)
        if plan is None:
            with self.timers.measure("plan"):
                plan = TopologyPlan(
                    request.feeder,
                    method=getattr(request, "method", "linearized"),
                )
            self.plans[key] = plan
        return plan

    # ------------------------------------------------------------------
    # Warm-state handoff (fleet restart re-warming / graceful drain).
    def export_topology_state(self, topology_keys: set[str] | None = None) -> dict:
        """Snapshot cached warm state for the given topologies.

        Returns a pickle-safe payload: each topology's feeder and method,
        and the warm-start cache entries.  ``None`` exports every topology
        this engine has planned.
        """
        plans = {
            key: {"feeder": plan.feeder, "method": plan.method}
            for key, plan in self.plans.items()
            if topology_keys is None or key in topology_keys
        }
        return {
            "plans": plans,
            "warm_entries": self.cache.export_topology(topology_keys),
        }

    def import_topology_state(self, payload: dict) -> dict:
        """Install an exported warm-state payload into this engine.

        Builds each topology's :class:`TopologyPlan` if absent (the plan,
        base projections included, is a pure function of the feeder and
        method) and stores the warm-start entries through the normal LRU
        path.  Returns counts for telemetry.
        """
        for key, item in payload.get("plans", {}).items():
            if key not in self.plans:
                with self.timers.measure("plan"):
                    self.plans[key] = TopologyPlan(
                        item["feeder"], method=item.get("method", "linearized")
                    )
        warm_entries = payload.get("warm_entries", [])
        if self.warm_start:
            self.cache.import_entries(warm_entries)
        return {
            "topologies": len(payload.get("plans", {})),
            "warm_entries": len(warm_entries) if self.warm_start else 0,
        }

    def submit(self, request: OPFRequest) -> OPFResponse | None:
        """Enqueue a request; returns a ``rejected`` response when the
        queue is full (backpressure), ``None`` when accepted.

        The rejection's ``error`` string comes from a structured
        :class:`QueueFullError` whose ``queue_depth`` / ``maxsize`` /
        ``retry_after_s`` also land on the serving gauges."""
        try:
            self.queue.submit(request)
        except QueueFullError as exc:
            self.metrics.record_submit(accepted=False)
            self.metrics.record_backpressure(exc.queue_depth, exc.retry_after_s)
            return OPFResponse(
                request_id=request.request_id, status=STATUS_REJECTED, error=str(exc)
            )
        self.metrics.record_submit(accepted=True)
        self.metrics.record_backpressure(len(self.queue), self.queue.retry_after_hint)
        self._submit_times[id(request)] = time.perf_counter()
        return None

    def adopt(self, requests: list[OPFRequest]) -> None:
        """Admit already-accepted requests at the *front* of the queue,
        bypassing the capacity bound — the fleet failover path: requests
        re-routed off a dead worker were admitted once and must not be
        dropped or re-rejected."""
        self.queue.requeue_front(requests)
        now = time.perf_counter()
        for req in requests:
            self._submit_times[id(req)] = now

    def step(self) -> list[OPFResponse]:
        """Serve exactly one batch off the queue (empty list when idle).

        The single-dispatch primitive :meth:`run` loops over; the fleet's
        sim-mode workers call it directly so a frontend can interleave
        batches across workers deterministically (and kill a worker at a
        batch boundary).
        """
        batch = self.scheduler.next_batch()
        if not batch:
            return []
        self.metrics.record_batch(len(batch))
        method = getattr(batch[0], "method", "linearized")
        self.metrics.registry.counter(f"methods.batches_{method}").inc()
        with self.tracer.span(
            "serve.batch", cat="serve", size=len(batch), method=method
        ):
            with Timer() as batch_wall:
                responses = self._serve_batch(batch)
        # Keep the backpressure hint fresh: an EWMA of batch wall
        # time is roughly "when will the queue drain one batch".
        ewma = self._batch_latency_ewma_s
        self._batch_latency_ewma_s = (
            batch_wall.elapsed if ewma == 0.0 else 0.8 * ewma + 0.2 * batch_wall.elapsed
        )
        self.queue.retry_after_hint = self._batch_latency_ewma_s
        self.metrics.record_backpressure(
            len(self.queue), self._batch_latency_ewma_s
        )
        return responses

    def run(self) -> list[OPFResponse]:
        """Drain the queue batch by batch; returns all produced responses."""
        responses: list[OPFResponse] = []
        with Timer() as wall:
            while len(self.queue):
                responses.extend(self.step())
        self.metrics.wall_seconds += wall.elapsed
        return responses

    def serve(self, requests: list) -> list[OPFResponse]:
        """Submit everything, run to completion, return responses in
        submission order (rejections included).

        Accepts a mix of request kinds: plain :class:`OPFRequest`,
        :class:`StochasticRequest` (expanded into one child request per
        scenario — the scenario batch *is* the ADMM batch — and folded
        back into one :class:`StochasticResponse` once every child,
        including its retry/degrade path, has finished) and
        :class:`MultiPeriodRequest` (served directly through the
        rolling-horizon scheduler).
        """
        produced: dict[str, OPFResponse] = {}
        expansions: list[tuple[StochasticRequest, list[str]]] = []
        for req in requests:
            if isinstance(req, MultiPeriodRequest):
                produced[req.request_id] = self._serve_multiperiod(req)
                continue
            if isinstance(req, StochasticRequest):
                try:
                    with self.timers.measure("expand"):
                        children = req.expand(self.plan_for(req).net)
                except (ValueError, KeyError) as exc:
                    produced[req.request_id] = StochasticResponse(
                        request_id=req.request_id,
                        status=STATUS_ERROR,
                        error=str(exc),
                        n_scenarios=req.n_scenarios,
                        alpha=req.alpha,
                    )
                    continue
                self.metrics.record_stochastic(len(children))
                ids = []
                for child in children:
                    ids.append(child.request_id)
                    resp = self.submit(child)
                    if resp is not None:
                        produced[resp.request_id] = resp
                expansions.append((req, ids))
                continue
            resp = self.submit(req)
            if resp is not None:
                produced[req.request_id] = resp
        for r in self.run():
            produced[r.request_id] = r
        # Aggregate after run(): every child has passed through the full
        # solve/retry/degrade pipeline by now.
        for req, ids in expansions:
            kids = [produced.pop(i) for i in ids if i in produced]
            produced[req.request_id] = StochasticResponse.aggregate(req, kids)
        return [produced[r.request_id] for r in requests if r.request_id in produced]

    def snapshot(self) -> dict:
        """Serving metrics + cache statistics, one flat dict."""
        for plan in self.plans.values():
            self.metrics.record_factorizations(
                plan.factorizations_computed, plan.factorizations_reused
            )
            plan.factorizations_computed = 0
            plan.factorizations_reused = 0
        return self.metrics.snapshot(cache_stats=self.cache.stats.as_dict())

    # ------------------------------------------------------------------
    def _serve_batch(self, batch: list[OPFRequest]) -> list[OPFResponse]:
        now = time.perf_counter()
        for req in batch:
            t_submit = self._submit_times.get(id(req))
            if t_submit is not None:
                self.metrics.record_queue_wait(now - t_submit)

        # Circuit breaker gate: an open breaker fails the whole batch fast
        # (no build, no solve) with a machine-readable retry hint.
        key = batch[0].topology_key()
        breaker = self._breaker_for(key)
        if breaker is not None and not breaker.allow():
            exc = CircuitOpenError(key, breaker.retry_after_s())
            responses = []
            for req in batch:
                self.metrics.record_breaker_rejection()
                resp = OPFResponse(
                    request_id=req.request_id, status=STATUS_REJECTED, error=str(exc)
                )
                resp.latency_seconds = self._latency(req)
                self.metrics.record_response(resp.status, 0, False, resp.latency_seconds)
                responses.append(resp)
            return responses

        plan = self.plan_for(batch[0])
        problems: list[ScenarioProblem] = []
        responses: list[OPFResponse] = []
        for req in batch:
            if self._deadline_expired(req):
                resp = OPFResponse(
                    request_id=req.request_id,
                    status=STATUS_TIMEOUT,
                    error=f"deadline_s={req.options.deadline_s} expired in queue",
                )
                resp.latency_seconds = self._latency(req)
                self.metrics.record_response(resp.status, 0, False, resp.latency_seconds)
                responses.append(resp)
                continue
            try:
                with self.timers.measure("build"):
                    problems.append(plan.build_scenario(req))
            except (ValueError, KeyError) as exc:
                resp = OPFResponse(
                    request_id=req.request_id, status=STATUS_ERROR, error=str(exc)
                )
                resp.latency_seconds = self._latency(req)
                self.metrics.record_response(resp.status, 0, False, resp.latency_seconds)
                responses.append(resp)
        if not problems:
            return responses
        self.injector.begin_attempt(0)
        outcome = self._solve_stacked(plan, problems)
        self.metrics.solve_seconds += outcome.solve_seconds
        responses.extend(outcome.responses)

        # Diverged scenarios get retried individually (backoff per policy),
        # then degraded to the exact reference LP or errored out — the rest
        # of the batch is untouched.
        failed: list[int] = []
        if outcome.diverged:
            retried, failed = self._retry_or_degrade(plan, problems, outcome.diverged)
            responses.extend(retried)

        if breaker is not None:
            if failed:
                for _ in failed:
                    if breaker.record_failure():
                        self.metrics.record_breaker_open()
            else:
                breaker.record_success()
        return responses

    def _serve_multiperiod(self, request: MultiPeriodRequest) -> MultiPeriodResponse:
        """Run one rolling-horizon schedule (not batch-stacked: the
        time-expanded problem already couples its periods internally)."""
        from repro.multiperiod.horizon import rolling_horizon

        self.metrics.record_multiperiod()
        t0 = time.perf_counter()
        opts = request.options
        config = ADMMConfig(
            rho=opts.rho, eps_rel=opts.eps_rel, max_iter=opts.max_iter
        )
        try:
            with self.tracer.span(
                "serve.multiperiod",
                cat="serve",
                periods=len(request.load_profile),
            ):
                net = resolve_feeder(request.feeder)
                storages = request.build_storages()
                horizon = rolling_horizon(
                    net,
                    request.load_profile,
                    request.price_profile,
                    storages,
                    window=request.window,
                    dt_hours=request.dt_hours,
                    solver="admm",
                    config=config,
                    backend=self.backend,
                    tracer=self.tracer,
                )
        except (ValueError, KeyError, FormulationError) as exc:
            resp = MultiPeriodResponse(
                request_id=request.request_id, status=STATUS_ERROR, error=str(exc)
            )
            resp.solve_seconds = resp.latency_seconds = time.perf_counter() - t0
            self.metrics.record_response(resp.status, 0, False, resp.latency_seconds)
            return resp
        converged = all(s.converged for s in horizon.steps)
        resp = MultiPeriodResponse(
            request_id=request.request_id,
            status=STATUS_CONVERGED if converged else STATUS_ITERATION_LIMIT,
            objective=horizon.committed_cost,
            iterations=sum(s.iterations for s in horizon.steps),
            pres=0.0,
            dres=0.0,
            primal_violation=max(s.primal_violation for s in horizon.steps),
            n_periods=len(horizon.steps),
            committed_cost=horizon.committed_cost,
            soc_trajectories={
                st.name: [float(v) for v in horizon.soc_trajectory(st.name)]
                for st in storages
            },
        )
        resp.solve_seconds = resp.latency_seconds = time.perf_counter() - t0
        self.metrics.solve_seconds += resp.solve_seconds
        self.metrics.record_response(
            resp.status, resp.iterations, False, resp.latency_seconds
        )
        return resp

    def _breaker_for(self, key: str) -> CircuitBreaker | None:
        if not self.resilience.breaker_enabled:
            return None
        breaker = self.breakers.get(key)
        if breaker is None:
            breaker = self.breakers[key] = CircuitBreaker(
                failure_threshold=self.resilience.breaker_failure_threshold,
                recovery_s=self.resilience.breaker_recovery_s,
            )
        return breaker

    def _deadline_expired(self, request: OPFRequest) -> bool:
        deadline = request.options.deadline_s
        if deadline is None:
            return False
        t0 = self._submit_times.get(id(request))
        return t0 is not None and time.perf_counter() - t0 > deadline

    def _retry_or_degrade(
        self, plan: TopologyPlan, problems: list[ScenarioProblem], diverged: list[int]
    ) -> tuple[list[OPFResponse], list[int]]:
        """Re-solve each diverged scenario alone (clean attempt, backoff per
        the retry policy); degrade survivors of exhausted retries to the
        reference LP.  Returns (responses, indices that never recovered)."""
        policy = self.resilience.retry
        responses: list[OPFResponse] = []
        still_failed: list[int] = []
        for k in diverged:
            p = problems[k]
            self.metrics.record_divergent()
            resp = None
            attempts = 1
            for attempt in range(1, policy.max_retries + 1):
                attempts += 1
                self.metrics.record_retry()
                delay = policy.delay(attempt)
                if delay > 0:
                    time.sleep(delay)
                self.injector.begin_attempt(attempt)
                with self.tracer.span("serve.retry", cat="serve", attempt=attempt):
                    retry_out = self._solve_stacked(plan, [p])
                self.metrics.solve_seconds += retry_out.solve_seconds
                if not retry_out.diverged:
                    resp = retry_out.responses[0]
                    resp.attempts = attempts
                    break
            if resp is None:
                still_failed.append(k)
                resp = self._degrade_or_error(p, attempts)
            responses.append(resp)
        self.injector.begin_attempt(0)
        return responses, still_failed

    def _degrade_or_error(self, p: ScenarioProblem, attempts: int) -> OPFResponse:
        """Answer a scenario whose retries ran out: the exact reference
        solve of its model when degradation is on, else (or when that
        solve fails too) an ``error`` naming why."""
        req = p.request
        resp = OPFResponse(
            request_id=req.request_id,
            status=STATUS_ERROR,
            error=f"batched solve diverged after {attempts} attempts",
            attempts=attempts,
        )
        degradable = p.model is not None
        if self.resilience.degrade_to_reference and degradable:
            try:
                with self.timers.measure("degrade"):
                    if p.lp is not None:
                        ref = solve_reference(p.lp)
                    else:
                        # Conic scenarios have no LP; the exact fallback is
                        # the HiGHS cutting-plane solve of the same model.
                        ref = solve_reference_socp(p.conic)
            except InfeasibleError as exc:
                # Only this request fails; its batchmates keep their answers.
                resp.error = str(exc)
            else:
                self.metrics.record_degraded()
                # No bound is computed on this path, so it is never certified.
                resp = OPFResponse(
                    request_id=req.request_id,
                    status=STATUS_CONVERGED,
                    objective=float(ref.objective),
                    iterations=0,
                    degraded=True,
                    attempts=attempts,
                    primal_violation=p.model.primal_violation(ref.x),
                )
        resp.latency_seconds = self._latency(req)
        self.metrics.record_response(resp.status, 0, False, resp.latency_seconds)
        return resp

    def _latency(self, request: OPFRequest) -> float:
        t0 = self._submit_times.pop(id(request), None)
        return time.perf_counter() - t0 if t0 is not None else 0.0

    def _trace_modeled_batch(self, modeled, sizes_all, iterations: int, k_n: int) -> None:
        """Emit this batch's modeled GPU execution on the ``gpu-modeled``
        track: the simulated local-update kernel launch (block-level
        schedule, with occupancy in the span args) followed by aggregate
        global/dual spans scaled to the iterations actually run."""
        trc = self.tracer
        t = self._modeled_clock_s
        per_iter_args = {
            "iterations": iterations,
            "scenarios": k_n,
            "per_iteration_us": round(1e6 * modeled.total_s, 2),
        }
        trc.add_modeled(
            "gpu.global_update", t, modeled.global_s * iterations, args=per_iter_args
        )
        t += modeled.global_s * iterations
        # The local stage nests one simulated kernel launch (with its block
        # schedule and occupancy in the args) inside the iteration-scaled
        # aggregate span, so the three stages stay comparable in Perfetto.
        execution = simulate_local_update(
            self.device, sizes_all, KERNEL_SIM_THREADS, tracer=trc, t_start_s=t,
            itemsize=self.backend.policy.itemsize,
        )
        local_total = max(execution.time_s, modeled.local_s * iterations)
        trc.add_modeled("gpu.local_update", t, local_total, args=per_iter_args)
        t += local_total
        trc.add_modeled(
            "gpu.dual_update", t, modeled.dual_s * iterations, args=per_iter_args
        )
        t += modeled.dual_s * iterations
        self._modeled_clock_s = t

    def _solve_stacked(
        self, plan: TopologyPlan, problems: list[ScenarioProblem]
    ) -> _BatchOutcome:
        """One ADMM run over the union of K independent same-topology
        scenarios (scenario-major stacking): the method's own strategy over
        the stacked scenarios, wrapped in the serving hook and run on the
        shared :class:`~repro.core.loop.ADMMLoop` under the engine's
        backend."""
        b = self.backend
        k_n = len(problems)
        n = plan.n_vars
        n_local = plan.n_local

        sizes_all = np.tile(plan.sizes, k_n)
        with self.timers.measure("stack"):
            strategy = make_method_solver(
                plan.stacked(problems), _STACKED_CONFIG, backend=b
            )
            strat = _ServingBatch(self, strategy, problems)

        # Warm starts: seed each scenario from its nearest cached neighbour.
        x, z, lam = strategy.initial_state()
        warm = np.zeros(k_n, dtype=bool)
        warm_dist = np.full(k_n, np.nan)
        with self.tracer.span("serve.warm_lookup", cat="serve", scenarios=k_n):
            for k, p in enumerate(problems):
                hit = (
                    self.cache.lookup(p.request.topology_key(), p.signature)
                    if self.warm_start
                    else None
                )
                if hit is not None:
                    entry, dist = hit
                    gs = slice(k * n, (k + 1) * n)
                    ls = slice(k * n_local, (k + 1) * n_local)
                    x[gs], z[ls], lam[ls] = entry.x, entry.z, entry.lam
                    warm[k], warm_dist[k] = True, dist
        strat.bind_state(x, z, lam)

        # Stacked Algorithm 1 on the shared engine.  Per-scenario
        # termination, deadlines and divergence isolation live in the
        # hook's residuals; the engine's timers/stall machinery is off.
        loop = ADMMLoop(
            strat,
            _STACKED_CONFIG,
            backend=b,
            tracer=self.tracer,
            record_timers=False,
            watch_stall=False,
        )
        trc = self.tracer
        t_solve = time.perf_counter()
        outcome = loop.run(x, z, lam, budget=int(strat.budget_k.max()))
        t_end = time.perf_counter()
        iteration = outcome.iterations
        solve_seconds = t_end - t_solve
        self.timers.add("solve", solve_seconds)
        if trc:
            trc.add_complete(
                "serve.solve",
                t_solve,
                t_end,
                cat="serve",
                args={"scenarios": k_n, "iterations": iteration},
            )
        modeled = iteration_times_from_sizes(
            self.device, sizes_all, k_n * n, itemsize=b.policy.itemsize
        )
        self.metrics.record_modeled_gpu_iteration(modeled.total_s)
        if trc:
            self._trace_modeled_batch(modeled, sizes_all, iteration, k_n)

        # Results come off the backend as host fp64 (a view under NumPy
        # fp64, so the default path stays bit-identical).
        snap_x = b.to_numpy(strat.snap_x)
        snap_z = b.to_numpy(strat.snap_z)
        snap_lam = b.to_numpy(strat.snap_lam)
        iters, conv, timed_out = strat.iters, strat.conv, strat.timed_out
        responses = []
        for k, p in enumerate(problems):
            if strat.diverged[k]:
                # The caller owns diverged scenarios (retry, then degrade
                # or error) — no response, and latency is settled there.
                continue
            gs = slice(k * n, (k + 1) * n)
            ls = slice(k * n_local, (k + 1) * n_local)
            if conv[k]:
                status = STATUS_CONVERGED
            elif timed_out[k]:
                status = STATUS_TIMEOUT
            else:
                status = STATUS_ITERATION_LIMIT
            # A certified scenario answers with its polished host-fp64 point.
            certificate = strat.certificates.get(k)
            if certificate is not None:
                x_k, z_k = certificate.x, certificate.x[plan.dec.global_cols]
                objective = certificate.objective
            else:
                x_k, z_k = snap_x[gs], snap_z[ls]
                objective = float(p.cost @ x_k)
            answered = not timed_out[k]
            resp = OPFResponse(
                request_id=p.request.request_id,
                status=status,
                objective=objective if answered else None,
                iterations=int(iters[k]) if iters[k] else iteration,
                pres=float(strat.pres_at[k]),
                dres=float(strat.dres_at[k]),
                warm_started=bool(warm[k]),
                warm_distance=float(warm_dist[k]) if warm[k] else None,
                solve_seconds=solve_seconds,
                latency_seconds=self._latency(p.request),
                certified=certificate is not None,
                gap=None if certificate is None else certificate.gap,
                primal_violation=(
                    p.model.primal_violation(x_k)
                    if answered and p.model is not None else None
                ),
            )
            if timed_out[k]:
                resp.error = (
                    f"deadline_s={p.request.options.deadline_s} expired at "
                    f"iteration {int(iters[k])}"
                )
            if conv[k] and self.warm_start:
                self.cache.store(
                    p.request.topology_key(),
                    p.request.scenario_key(),
                    p.signature,
                    x_k,
                    z_k,
                    snap_lam[ls],
                    int(iters[k]),
                )
            self.metrics.record_response(
                resp.status, resp.iterations, resp.warm_started, resp.latency_seconds
            )
            responses.append(resp)
        return _BatchOutcome(
            responses=responses,
            iterations_run=iteration,
            solve_seconds=solve_seconds,
            diverged=[int(k) for k in np.flatnonzero(strat.diverged)],
        )
