"""Scenario serving: many perturbed OPF instances through one engine.

Operators rarely solve one OPF: intra-day re-dispatch, DER hosting checks
and contingency screening all ask for *families* of scenarios on the same
feeder.  This example pushes a day of hourly load profiles (plus a DER
re-dispatch sweep) through :class:`repro.serve.ScenarioEngine`, which

* precomputes the partition and projection factorizations once per feeder,
* groups same-feeder requests into stacked batches for the batched
  projection kernels (the paper's amortization, applied across scenarios),
* warm-starts each scenario from the nearest previously converged state,
* stops each scenario at its first certified active-set polish: an exact
  answer with a proven optimality gap (docs/ALGORITHMS.md §11).

Run:  python examples/scenario_serving.py
"""

import numpy as np

from repro.serve import OPFRequest, ScenarioEngine, SolveOptions


def hourly_profile(hour: int) -> float:
    """A stylized residential load shape (evening peak, night valley)."""
    return 0.75 + 0.30 * np.exp(-((hour - 19) % 24) ** 2 / 18.0) + 0.08 * np.sin(
        np.pi * hour / 12.0
    )


def day(prefix: str, nudge: float = 1.0, polish: bool = True) -> list[OPFRequest]:
    """A day of hourly scenarios: the same feeder under a moving load."""
    return [
        OPFRequest(
            request_id=f"{prefix}-{h:02d}",
            feeder="ieee13",
            load_scale=float(hourly_profile(h) * nudge),
            options=SolveOptions(polish=polish),
        )
        for h in range(24)
    ]


def main() -> None:
    engine = ScenarioEngine(max_batch=8, cache_capacity=64)

    # 1. A day of hourly scenarios, each certified at its first polish.
    responses = engine.serve(day("hour"))
    print("hour  scale   status      iters  start  objective  certified  gap")
    for h, r in zip(range(24), responses):
        print(
            f"{h:4d}  {hourly_profile(h):5.3f}  {r.status:<10s}"
            f"{r.iterations:7d}  {'warm' if r.warm_started else 'cold':<5s}"
            f"  {r.objective:9.5f}  {str(r.certified):<9s}  {r.gap:8.1e}"
        )

    # 2. Under the paper's stopping rule (polish off) warm starts are what
    #    saves iterations: serve the day, then re-serve it with each load
    #    nudged a little, so every hour warm-starts from its first pass.
    paper = ScenarioEngine(max_batch=8, cache_capacity=64)
    first = paper.serve(day("hour", polish=False))
    redo = paper.serve(day("redo", 1.01, polish=False))
    warm = [r.iterations for r in redo if r.warm_started]
    cold = [r.iterations for r in first if not r.warm_started]
    print(
        f"\nre-dispatch pass without polish: {len(warm)}/{len(redo)} warm-started, "
        f"mean {np.mean(warm):.0f} iterations vs {np.mean(cold):.0f} cold "
        f"({100 * (1 - np.mean(warm) / np.mean(cold)):.0f}% saved)"
    )

    # 3. Serving metrics: throughput, cache behaviour, batch occupancy.
    snap = engine.snapshot()
    print(
        f"\nserved {snap['served']} scenarios in {snap['wall_seconds']:.2f}s "
        f"({snap['scenarios_per_second']:.1f}/s), "
        f"batch occupancy {100 * snap['batch_occupancy']:.0f}%, "
        f"cache hit rate {100 * snap['cache_hit_rate']:.0f}%, "
        f"projections reused {snap['factorizations_reused']}, "
        f"polish certified {snap['polish_certified']}/{snap['polish_attempts']}"
    )


if __name__ == "__main__":
    main()
