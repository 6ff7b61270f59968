"""Smoke test of the layered benchmark: every workload at tiny sizes.

    python -m pytest benchmarks/layers/test_smoke.py

Runs each workload untraced and traced in sim mode (about 20 s in all)
and checks the metric declarations, the correctness gate and the
accounting identities of the traced layer times.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from workloads import WORKLOADS, run_workload  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"] for m in DECLARED["per_layer"]}


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_emits_the_end_to_end_metrics(name):
    result = run_workload(name, seed=1, seconds=0.3, trace=False, smoke=True)
    assert result.correct and result.failed == 0 and result.attempted >= 1
    assert set(result.metrics) == END_TO_END
    assert all(v > 0 and math.isfinite(v) for v in result.metrics.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_consistent_layer_metrics(name):
    result = run_workload(name, seed=1, seconds=0.3, trace=True, smoke=True)
    assert result.correct and result.failed == 0
    m = result.metrics
    assert set(m) == PER_LAYER
    assert all(math.isfinite(v) for v in m.values())
    # The four hooks plus loop bookkeeping make up ADMMLoop.run.
    parts = sum(m[f"loop.{k}_us"] for k in ("global", "local", "dual", "residual", "overhead"))
    assert parts == pytest.approx(m["loop.iter_us"], rel=0.05)
    assert m["loop.overhead_us"] >= 0
    # The named request stages fit inside the step that ran them.
    assert m["stage.other_ms"] >= 0
    assert m["stage.solve_ms"] * m["serve.batch_size"] == pytest.approx(
        m["loop.iter_us"] * m["loop.iterations"] / 1e3, rel=0.05
    )


def test_command_prints_the_contract_result():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "solve-ieee13",
         "--seed", "3", "--seconds", "0.3", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    units = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
