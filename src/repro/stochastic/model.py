"""Two-stage stochastic OPF: scenario-expanded LP with CVaR epigraph.

The deterministic equivalent of the two-stage problem is one big LP over
all K sampled scenarios, a :class:`~repro.formulation.centralized.CentralizedLP`.
Like the multi-period expansion (:mod:`repro.multiperiod.model`), it
reuses the single-period builders unchanged: every scenario gets its own
copy of the network's variables and rows
(:func:`~repro.formulation.centralized.register_network` and
:func:`~repro.formulation.centralized.tagged_rows`, keys and owners with
an ``@s<k>`` tag), with loads scaled by the scenario's multipliers and PV
upper bounds scaled by its availability.

What makes it *two-stage* is which variables are **not** duplicated: the
active-power dispatch of the first-stage DERs keeps its unsuffixed key, so
the same column appears in every scenario's balance rows.  Under the
support-grouped consensus decomposition, each scenario's components then
hold their own local copy of the shared setpoint and the ADMM global
average ties them together — non-anticipativity *is* the consensus
constraint, no extra rows needed.  Reactive power, voltages, flows and the
substation import stay scenario-local (the recourse).

Risk objectives follow Rockafellar & Uryasev's epigraph LP (the
formulation GRIDOPT's ``problem_risk.py`` samples the same way):

    CVaR_a(cost) = min_t  t + 1/((1-a) K) sum_k u_k,
                   u_k >= cost_k - t,  u_k >= 0,

with each inequality written as an equality plus a slack so the rows fit
the equality-only component machinery: ``cost_k - t - u_k + s_k = 0``.
Every epigraph row is its own component (``("cvar", "s<k>")``), so the
projection batch absorbs them like any other component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formulation.centralized import CentralizedLP, register_network, tagged_rows
from repro.formulation.rows import Row
from repro.formulation.variables import VariableIndex
from repro.network.network import DistributionNetwork
from repro.stochastic.sampler import SAMPLE_DTYPE, ScenarioSet
from repro.utils.exceptions import FormulationError

OBJECTIVE_EXPECTED = "expected"
OBJECTIVE_CVAR = "cvar"


def _suffix(name: str, k: int) -> str:
    return f"{name}@s{k}"


def sample_cvar(costs: np.ndarray, weights: np.ndarray, alpha: float) -> float:
    """CVaR_alpha of a finite cost distribution (Rockafellar-Uryasev).

    Evaluates ``min_t t + 1/(1-alpha) * E[(cost - t)+]`` exactly: the
    optimum is attained at a sample point, so scanning the samples as
    candidate ``t`` values suffices.
    """
    costs = np.asarray(costs, dtype=SAMPLE_DTYPE)
    weights = np.asarray(weights, dtype=SAMPLE_DTYPE)
    best = np.inf
    for t in costs:
        val = t + float(weights @ np.maximum(costs - t, 0.0)) / (1.0 - alpha)
        best = min(best, val)
    return float(best)


@dataclass
class StochasticProblem(CentralizedLP):
    """The assembled scenario-expanded LP plus its two-stage structure."""

    scenarios: ScenarioSet
    first_stage: tuple[str, ...]
    alpha: float

    @property
    def n_scenarios(self) -> int:
        return self.scenarios.n_scenarios

    # Convenience extraction -------------------------------------------------
    def first_stage_setpoints(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """Per-phase first-stage dispatch of each coupled DER."""
        vi = self.var_index
        out = {}
        for name in self.first_stage:
            gen = self.network.generators[name]
            out[name] = np.array(
                [float(x[vi.index(("pg", name, phi))]) for phi in gen.phases]
            )
        return out

    def first_stage_cost(self, x: np.ndarray) -> float:
        """Deterministic (here-and-now) part of the objective."""
        vi = self.var_index
        total = 0.0
        for name in self.first_stage:
            gen = self.network.generators[name]
            for phi in gen.phases:
                total += gen.cost * float(x[vi.index(("pg", name, phi))])
        return total

    def scenario_costs(self, x: np.ndarray) -> np.ndarray:
        """Recourse cost per scenario (scenario-local generation only)."""
        vi = self.var_index
        fs = set(self.first_stage)
        out = np.zeros(self.n_scenarios, dtype=SAMPLE_DTYPE)
        for k in range(self.n_scenarios):
            for name, gen in self.network.generators.items():
                if name in fs or gen.cost == 0.0:
                    continue
                nm = _suffix(name, k)
                for phi in gen.phases:
                    out[k] += gen.cost * float(x[vi.index(("pg", nm, phi))])
        return out

    def expected_cost(self, x: np.ndarray) -> float:
        """First-stage cost plus the expected recourse cost of ``x``."""
        rec = self.scenario_costs(x)
        return self.first_stage_cost(x) + float(self.scenarios.weights @ rec)

    def cvar_cost(self, x: np.ndarray) -> float:
        """First-stage cost plus the sample CVaR of the recourse of ``x``."""
        rec = self.scenario_costs(x)
        return self.first_stage_cost(x) + sample_cvar(
            rec, self.scenarios.weights, self.alpha
        )


def default_first_stage(net: DistributionNetwork, pv_names=()) -> list[str]:
    """Dispatchable non-substation, non-PV generators (the DERs)."""
    pv = set(pv_names)
    return sorted(
        name
        for name, gen in net.generators.items()
        if gen.bus != net.substation and name not in pv
    )


def build_stochastic_lp(
    net: DistributionNetwork,
    scenarios: ScenarioSet,
    first_stage: list[str] | None = None,
    alpha: float = 0.95,
    objective: str = OBJECTIVE_CVAR,
    fix_first_stage: dict[str, np.ndarray] | None = None,
) -> StochasticProblem:
    """Scenario-expand ``net`` into the two-stage deterministic equivalent.

    Parameters
    ----------
    scenarios:
        A :class:`~repro.stochastic.sampler.ScenarioSet`; its load and PV
        names must exist in the network.
    first_stage:
        Generator names whose active power is decided before the scenario
        is revealed (shared across scenarios).  Defaults to every
        dispatchable non-substation, non-PV generator.
    alpha:
        CVaR confidence level in (0, 1) — only used when ``objective`` is
        ``"cvar"``.
    objective:
        ``"expected"`` minimizes first-stage cost + expected recourse;
        ``"cvar"`` minimizes first-stage cost + CVaR_alpha of the recourse.
    fix_first_stage:
        Optional per-generator per-phase setpoints: collapses the
        first-stage boxes so the LP *evaluates* a given here-and-now
        decision (the recourse-evaluation mode VSS uses).

    Raises
    ------
    FormulationError
        On unknown names, bad alpha, or an unknown objective.
    """
    if objective not in (OBJECTIVE_EXPECTED, OBJECTIVE_CVAR):
        raise FormulationError(f"unknown objective {objective!r}")
    if not 0.0 < alpha < 1.0:
        raise FormulationError("alpha must be in (0, 1)")
    unknown = set(scenarios.load_names) - set(net.loads)
    if unknown:
        raise FormulationError(f"scenario set names unknown loads: {sorted(unknown)}")
    unknown = set(scenarios.pv_names) - set(net.generators)
    if unknown:
        raise FormulationError(f"scenario set names unknown PV units: {sorted(unknown)}")
    if first_stage is None:
        first_stage = default_first_stage(net, scenarios.pv_names)
    fs = set(first_stage)
    unknown = fs - set(net.generators)
    if unknown:
        raise FormulationError(f"unknown first-stage generators: {sorted(unknown)}")
    if fs & set(scenarios.pv_names):
        raise FormulationError("PV units cannot be first-stage (not dispatchable)")
    sub_gens = {g.name for g in net.generators_at(net.substation)}
    if fs & sub_gens:
        raise FormulationError("the substation source is recourse, not first-stage")
    net.validate()

    k_n = scenarios.n_scenarios
    weights = scenarios.weights
    vi = VariableIndex()
    rows: list[Row] = []

    # First-stage DER setpoints: one shared column per generator phase.
    # Their cost is deterministic, so it lives directly on the column in
    # both objective modes.
    for name in first_stage:
        gen = net.generators[name]
        for a, phi in enumerate(gen.phases):
            lo, hi = gen.p_min[a], gen.p_max[a]
            if fix_first_stage is not None and name in fix_first_stage:
                lo = hi = float(np.asarray(fix_first_stage[name]).reshape(-1)[a])
            vi.add(("pg", name, phi), lo, hi, cost=gen.cost)

    pv_index = {name: j for j, name in enumerate(scenarios.pv_names)}
    for k in range(k_n):
        # Scenario copy of the physical network: scaled loads, PV derated
        # by the drawn availability.
        scen_net = net.copy()
        for j, name in enumerate(scenarios.load_names):
            load = scen_net.loads[name]
            load.p_ref = load.p_ref * scenarios.load_multipliers[k, j]
            load.q_ref = load.q_ref * scenarios.load_multipliers[k, j]
        for name, j in pv_index.items():
            gen = scen_net.generators[name]
            gen.p_max = gen.p_max * scenarios.pv_availability[k, j]

        # Scenario-local variables and rows.  The first-stage pg columns
        # are shared: the one column landing in K different scenario
        # components is what couples the stages.  In CVaR mode the
        # recourse cost enters through the epigraph rows, not the
        # objective vector.
        tag = f"@s{k}"
        rec_weight = weights[k] if objective == OBJECTIVE_EXPECTED else 0.0
        register_network(
            vi, scen_net, tag, pg_cost=lambda gen: gen.cost * rec_weight, shared=fs
        )
        rows.extend(tagged_rows(scen_net, tag, shared=fs))

    # CVaR epigraph: t (free), per-scenario excess u_k >= 0 and slack
    # s_k >= 0 with  rec_k - t - u_k + s_k = 0, each row its own component.
    if objective == OBJECTIVE_CVAR:
        vi.add(("ct", "cvar", 1), cost=1.0, init=0.0)
        for k in range(k_n):
            excess_w = float(weights[k]) / (1.0 - alpha)
            vi.add(("cu", f"s{k}", 1), 0.0, np.inf, cost=excess_w, init=0.0)
            vi.add(("cs", f"s{k}", 1), 0.0, np.inf, init=0.0)
            coeffs: dict = {
                ("ct", "cvar", 1): -1.0,
                ("cu", f"s{k}", 1): -1.0,
                ("cs", f"s{k}", 1): 1.0,
            }
            for name, gen in net.generators.items():
                if name in fs or gen.cost == 0.0:
                    continue
                nm = _suffix(name, k)
                for phi in gen.phases:
                    coeffs[("pg", nm, phi)] = gen.cost
            rows.append(Row(coeffs, 0.0, ("cvar", f"s{k}"), tag=f"cvar:s{k}"))

    return StochasticProblem.assemble(
        net, vi, rows, scenarios=scenarios, first_stage=tuple(first_stage), alpha=alpha
    )
