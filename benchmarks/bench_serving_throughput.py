"""Serving benchmark: batched multi-scenario throughput + warm-start savings.

Extension of the paper's evaluation to the serving setting: a stream of
perturbed IEEE-13 scenarios is pushed through :class:`repro.serve.ScenarioEngine`
at several batch sizes.  Reported per batch size:

* scenarios/second (end-to-end, including scenario assembly),
* warm vs cold mean iteration counts and the relative saving,
* warm-start cache hit rate and projection-factorization reuse,
* the modeled A100 per-iteration time of the stacked batch — batching K
  scenarios multiplies the batched-kernel work by K but amortizes kernel
  launches, the same effect the paper exploits across components.

The batch-size rows run the paper's stopping rule
(``SolveOptions(polish=False)``), where warm starts have iterations to
save.  The last row serves the same stream with the default certified
polish: every IEEE-13 scenario then stops at iteration 1, warm or cold.
"""

from dataclasses import replace

from _common import format_table, report

from repro.cli import generate_scenarios
from repro.serve import ScenarioEngine, SolveOptions

FEEDER = "ieee13"
N_SCENARIOS = 32
SEED = 0
BATCH_SIZES = (1, 4, 8, 16)
#: Batch size of the polish-on row.
POLISH_BATCH = 8


def _serve(max_batch: int, polish: bool):
    engine = ScenarioEngine(max_batch=max_batch, queue_size=128, cache_capacity=64)
    requests = [
        replace(r, options=SolveOptions(polish=polish))
        for r in generate_scenarios(FEEDER, N_SCENARIOS, SEED)
    ]
    responses = engine.serve(requests)
    return engine.snapshot(), responses


def test_serving_throughput_report(benchmark):
    rows = []
    snaps = {}
    for max_batch, polish in [(b, False) for b in BATCH_SIZES] + [(POLISH_BATCH, True)]:
        snap, responses = _serve(max_batch, polish)
        snaps[max_batch, polish] = snap
        assert snap["served"] == N_SCENARIOS
        assert snap["converged"] == N_SCENARIOS
        rows.append(
            [
                max_batch,
                "on" if polish else "off",
                snap["n_batches"],
                f"{snap['scenarios_per_second']:.1f}",
                f"{snap['mean_cold_iterations']:.0f}",
                f"{snap['mean_warm_iterations']:.0f}",
                f"{100 * snap['warm_start_iteration_savings']:.0f}%",
                f"{100 * snap['cache_hit_rate']:.0f}%",
                f"{snap['factorizations_reused']}/{snap['factorizations_computed'] + snap['factorizations_reused']}",
                f"{snap['modeled_gpu_iteration_us']:.1f}",
                f"{snap['polish_certified']}/{snap['polish_attempts']}",
            ]
        )
    text = format_table(
        [
            "max_batch",
            "polish",
            "batches",
            "scen/s",
            "cold iters",
            "warm iters",
            "warm saving",
            "hit rate",
            "proj reuse",
            "A100 us/iter",
            "certified/tried",
        ],
        rows,
        title=(
            f"scenario serving ({FEEDER}, {N_SCENARIOS} scenarios, seed {SEED}): "
            "throughput and warm-start savings by batch size"
        ),
    )
    report("serving_throughput", text)

    # Acceptance: the cache is exercised and warm starts genuinely save
    # iterations at every batch size under the paper's stopping rule.
    for b in BATCH_SIZES:
        snap = snaps[b, False]
        assert snap["cache_hit_rate"] > 0
        assert snap["mean_warm_iterations"] < snap["mean_cold_iterations"]
    # Batching the stream lifts end-to-end throughput over one-at-a-time.
    assert (
        snaps[8, False]["scenarios_per_second"] > snaps[1, False]["scenarios_per_second"]
    ) or (
        snaps[16, False]["scenarios_per_second"] > snaps[1, False]["scenarios_per_second"]
    )
    # With the polish every scenario is certified at iteration 1.
    polished = snaps[POLISH_BATCH, True]
    assert polished["polish_certified"] == N_SCENARIOS
    assert polished["mean_cold_iterations"] == polished["mean_warm_iterations"] == 1
