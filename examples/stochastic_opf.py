"""Two-stage stochastic OPF with CVaR, plus a rolling-horizon schedule.

Commits the DER feeder's dispatchable units *before* the uncertainty
(load and PV) is revealed, hedging over a seeded scenario set: the
first-stage variables stay unsuffixed and shared across every scenario's
components, so the ADMM consensus average *is* the non-anticipativity
constraint, and all K scenarios solve as one stacked batch.  Compares
the risk-neutral (expected-cost) commitment against the CVaR-0.9
risk-averse one, measures the value of the stochastic solution, then
runs the rolling-horizon storage scheduler on the same feeder.

Run:  python examples/stochastic_opf.py
"""

import numpy as np

from repro.core import ADMMConfig
from repro.feeders import ieee13, ieee13_der
from repro.multiperiod import Storage, rolling_horizon
from repro.stochastic import (
    ScenarioSampler,
    solve_two_stage,
    value_of_stochastic_solution,
)
from repro.utils import format_table

#: Scenario-expanded instances favour rho ~ 10 (docs/STOCHASTIC.md).
CONFIG = ADMMConfig(rho=10.0, eps_rel=1e-3, max_iter=60_000)


def main() -> None:
    net = ieee13_der()
    sampler = ScenarioSampler.from_network(net, seed=11)
    scenarios = sampler.sample(16)
    print(
        f"{net.summary()}  |  {scenarios.n_scenarios} scenarios "
        f"(antithetic, load sigma {scenarios.model.load_sigma:g}, "
        f"pv sigma {scenarios.model.pv_sigma:g})"
    )

    solutions = {
        name: solve_two_stage(
            net, scenarios, objective=name, alpha=0.9, config=CONFIG
        )
        for name in ("expected", "cvar")
    }
    rows = []
    for name, sol in solutions.items():
        rows.append([
            name,
            "yes" if sol.converged else "no",
            sol.iterations,
            f"{sol.objective:.6f}",
            f"{sol.expected_cost:.6f}",
            f"{sol.cvar_cost:.6f}",
            f"{sol.result.primal_violation:.1e}",
        ])
    print(format_table(
        ["objective", "conv", "iters", "optimum", "E[cost]", "CVaR_0.9",
         "primal viol"],
        rows,
        title="two-stage stochastic OPF (solver-free ADMM, rho 10)",
    ))

    # The risk-averse commitment trades expected cost for tail cost.
    rows = [
        [name, *(f"{float(np.sum(sol.first_stage[g])):.4f}"
                 for g in sorted(sol.first_stage))]
        for name, sol in solutions.items()
    ]
    print(format_table(
        ["objective", *sorted(solutions["expected"].first_stage)],
        rows,
        title="first-stage DER commitment (total pu over phases)",
    ))

    report = value_of_stochastic_solution(net, scenarios)
    print(
        f"\nvalue of the stochastic solution: {report.vss:.6f} "
        f"(mean-scenario plan costs {report.deterministic_eval:.6f}, "
        f"hedged plan {report.stochastic_eval:.6f})"
    )

    # Rolling-horizon storage schedule on a stylized 6-period day.  The
    # plain 13-bus feeder imports everything from the substation, so the
    # committed cost is the (price-weighted) energy purchase the battery
    # arbitrages against.
    load = [0.7, 0.8, 1.0, 1.2, 1.1, 0.9]
    price = [0.5 + 0.7 * (x - 0.7) / 0.5 for x in load]
    battery = Storage(
        "bat675", "675", p_ch_max=0.05, p_dis_max=0.05,
        energy_max=0.2, soc0=0.1,
    )
    schedule = rolling_horizon(
        ieee13(), load, price, [battery], window=3, config=CONFIG
    )
    soc = schedule.soc_trajectory("bat675")
    rows = [
        [step.period, f"{load[step.period]:.2f}", f"{price[step.period]:.2f}",
         f"{(step.storage_discharge['bat675'] - step.storage_charge['bat675'])*1e3:+.1f}",
         f"{soc[step.period + 1]:.3f}"]
        for step in schedule.steps
    ]
    print(format_table(
        ["t", "load x", "price", "battery [mpu]", "SOC [puh]"],
        rows,
        title="rolling-horizon schedule (positive = discharging)",
    ))
    print(f"committed cost over the day: {schedule.committed_cost:.6f}")

    assert all(sol.converged for sol in solutions.values())
    assert solutions["cvar"].objective >= solutions["expected"].objective - 1e-6
    assert report.vss > 0


if __name__ == "__main__":
    main()
