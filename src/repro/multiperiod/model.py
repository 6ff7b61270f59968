"""Multi-period distributed OPF with energy storage.

The component-wise baseline the paper compares against ([15]) solves a
*multi-period* three-phase OPF; this module builds that setting on top of
the same row machinery: the network model is time-expanded over ``T``
periods (every variable key and row owner gains an ``@t<k>`` suffix), loads
follow a per-period profile, generator energy prices vary per period, and
energy-storage systems couple the periods through state-of-charge dynamics

    soc_t = soc_{t-1} + dt * eta_ch * sum_phi charge_t
                      - dt / eta_dis * sum_phi discharge_t,

with an optional cyclic terminal condition ``soc_T = soc_0``.  Each storage
is one *component* owning its SOC chain — a textbook case for the paper's
component-wise decomposition, since the chain spans periods while every
other component is period-local.

The time-expanded problem is still an LP in the abstract form (7) — a
:class:`~repro.formulation.centralized.CentralizedLP` — so the solver-free
consensus machinery applies unchanged: :func:`~repro.socp.solver.decompose_conic`
groups its rows by support into equality components solved by batched
affine projections, every period's buses and lines plus one storage
component per storage spanning all periods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend.policy import HOST_DTYPE
from repro.formulation.centralized import CentralizedLP, register_network, tagged_rows
from repro.formulation.rows import Row
from repro.formulation.variables import VariableIndex
from repro.network.network import DistributionNetwork
from repro.utils.exceptions import FormulationError


@dataclass(frozen=True)
class Storage:
    """An energy-storage system attached to a bus.

    Attributes
    ----------
    p_ch_max, p_dis_max:
        Total (across phases) charge/discharge power limits (pu).
    energy_max:
        Usable energy capacity (pu-hours).
    eta_ch, eta_dis:
        Charge/discharge efficiencies in (0, 1].
    soc0:
        Initial state of charge (pu-hours).
    cyclic:
        Require ``soc_T = soc_0`` (no free end-of-horizon depletion).
    """

    name: str
    bus: str
    p_ch_max: float = 0.1
    p_dis_max: float = 0.1
    energy_max: float = 0.4
    eta_ch: float = 0.95
    eta_dis: float = 0.95
    soc0: float = 0.2
    cyclic: bool = True

    def __post_init__(self) -> None:
        if self.p_ch_max < 0 or self.p_dis_max < 0 or self.energy_max <= 0:
            raise ValueError(f"storage {self.name}: nonpositive ratings")
        if not (0 < self.eta_ch <= 1 and 0 < self.eta_dis <= 1):
            raise ValueError(f"storage {self.name}: efficiencies must be in (0, 1]")
        if not 0 <= self.soc0 <= self.energy_max:
            raise ValueError(f"storage {self.name}: soc0 outside capacity")


def _suffix(name: str, t: int) -> str:
    return f"{name}@t{t}"


@dataclass
class MultiPeriodProblem(CentralizedLP):
    """The assembled time-expanded LP plus its horizon and storages."""

    n_periods: int
    dt_hours: float
    storages: list[Storage]

    # Convenience extraction -------------------------------------------------
    def soc_trajectory(self, x: np.ndarray, storage: str) -> np.ndarray:
        """State of charge per period (including the initial value)."""
        st = next(s for s in self.storages if s.name == storage)
        vi = self.var_index
        soc = [st.soc0]
        for t in range(self.n_periods):
            soc.append(float(x[vi.index(("se", _suffix(storage, t), 1))]))
        return np.asarray(soc)

    def storage_power(self, x: np.ndarray, storage: str) -> np.ndarray:
        """Net injection (discharge - charge, summed over phases) per period."""
        vi = self.var_index
        st = next(s for s in self.storages if s.name == storage)
        phases = self.network.buses[st.bus].phases
        out = np.zeros(self.n_periods)
        for t in range(self.n_periods):
            nm = _suffix(storage, t)
            for phi in phases:
                out[t] += float(x[vi.index(("sd", nm, phi))])
                out[t] -= float(x[vi.index(("sc", nm, phi))])
        return out

    def substation_power(self, x: np.ndarray) -> np.ndarray:
        """Total substation generation per period."""
        net = self.network
        vi = self.var_index
        out = np.zeros(self.n_periods)
        for t in range(self.n_periods):
            for gen in net.generators_at(net.substation):
                nm = _suffix(gen.name, t)
                for phi in gen.phases:
                    out[t] += float(x[vi.index(("pg", nm, phi))])
        return out


def build_multiperiod_lp(
    net: DistributionNetwork,
    load_profile,
    price_profile=None,
    storages: list[Storage] | None = None,
    dt_hours: float = 1.0,
) -> MultiPeriodProblem:
    """Time-expand ``net`` over the profile and add storage coupling.

    Parameters
    ----------
    load_profile:
        Sequence of per-period load multipliers (length = number of
        periods); every load's reference power is scaled by it.
    price_profile:
        Optional per-period multiplier on every generator's cost (energy
        price shape); defaults to flat 1.0.
    storages:
        Storage systems to attach.
    dt_hours:
        Period length (enters the SOC dynamics).

    Raises
    ------
    FormulationError
        On empty profiles, mismatched lengths, or storages at unknown buses.
    """
    load_profile = np.asarray(load_profile, dtype=HOST_DTYPE)
    if load_profile.ndim != 1 or load_profile.size == 0:
        raise FormulationError("load_profile must be a non-empty 1-D sequence")
    n_periods = int(load_profile.size)
    if price_profile is None:
        price_profile = np.ones(n_periods)
    price_profile = np.asarray(price_profile, dtype=HOST_DTYPE)
    if price_profile.shape != (n_periods,):
        raise FormulationError("price_profile must match load_profile length")
    storages = list(storages or [])
    for st in storages:
        if st.bus not in net.buses:
            raise FormulationError(f"storage {st.name}: unknown bus {st.bus!r}")
    net.validate()

    vi = VariableIndex()
    rows: list[Row] = []
    for t in range(n_periods):
        tag = f"@t{t}"
        # Scaled clone of the physical network for period t.
        period_net = net.copy()
        for load in period_net.loads.values():
            load.p_ref = load.p_ref * load_profile[t]
            load.q_ref = load.q_ref * load_profile[t]
        price = price_profile[t]
        register_network(
            vi, period_net, tag, pg_cost=lambda gen: gen.cost * price * dt_hours
        )
        # Storage period variables.
        for st in storages:
            nm = _suffix(st.name, t)
            phases = net.buses[st.bus].phases
            nph = len(phases)
            for phi in phases:
                vi.add(("sc", nm, phi), 0.0, st.p_ch_max / nph)
                vi.add(("sd", nm, phi), 0.0, st.p_dis_max / nph)
            vi.add(("se", nm, 1), 0.0, st.energy_max, init=st.soc0)

        period_rows = tagged_rows(period_net, tag)
        # Inject storage power into this period's balance rows.
        balance = {row.tag: row for row in period_rows}
        for st in storages:
            nm = _suffix(st.name, t)
            for phi in net.buses[st.bus].phases:
                coeffs = balance[f"balance-p:{st.bus}:{phi}{tag}"].coeffs
                # Charging draws like a load, discharging injects.
                coeffs[("sc", nm, phi)] = 1.0
                coeffs[("sd", nm, phi)] = -1.0
        rows.extend(period_rows)

    # Storage SOC chains: one component per storage, spanning all periods.
    for st in storages:
        phases = net.buses[st.bus].phases
        owner = ("storage", st.name)
        for t in range(n_periods):
            nm = _suffix(st.name, t)
            coeffs: dict = {("se", nm, 1): 1.0}
            for phi in phases:
                coeffs[("sc", nm, phi)] = -st.eta_ch * dt_hours
                coeffs[("sd", nm, phi)] = dt_hours / st.eta_dis
            rhs = 0.0
            if t == 0:
                rhs = st.soc0
            else:
                coeffs[("se", _suffix(st.name, t - 1), 1)] = -1.0
            rows.append(Row(coeffs, rhs, owner, tag=f"soc:{st.name}:t{t}"))
        if st.cyclic:
            rows.append(
                Row(
                    {("se", _suffix(st.name, n_periods - 1), 1): 1.0},
                    st.soc0,
                    owner,
                    tag=f"soc-cyclic:{st.name}",
                )
            )

    return MultiPeriodProblem.assemble(
        net, vi, rows, n_periods=n_periods, dt_hours=dt_hours, storages=storages
    )
