"""Layered benchmark: end-to-end and per-layer metrics of six workloads.

One run (what ``BENCHMARK.json`` declares)::

    python3 benchmarks/layers/run.py --workload W --seed N --seconds S --trace 0|1

runs workload ``W`` in this process and prints each metric by name and
unit, an ``info`` line of context, and as its last line the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  The exit status
is 1 when the correctness gate fails.

A suite of runs (several workloads, seeds or trace modes, or ``--out``)::

    python3 benchmarks/layers/run.py [--workload W]... [--seed N] [--runs R]
        [--trace 0 [1]] [--smoke] [--out FILE]

runs each (seed, workload, trace) in a fresh subprocess, prints the
median and quartiles of every end-to-end metric, and writes every run to
``FILE`` (default ``benchmarks/layers/runs/latest.json``) for
``compare.py``.  ``--smoke`` shrinks every workload to a few seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
DEFAULT_OUT = HERE / "runs" / "latest.json"
#: Per-subprocess limit in suite mode (a run takes about 20 s).
RUN_TIMEOUT_S = 900


def load_declaration() -> dict:
    """``BENCHMARK.json``: the metric names, units and bounds this emits."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_repro() -> None:
    """Put this checkout's ``src`` first on the path and insist on it, so a
    run never measures some other installed copy of the package."""
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        sys.exit(f"repro imported from {repro.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def run_once(args, declaration: dict) -> int:
    from workloads import run_workload

    trace = args.trace[0]
    result = run_workload(args.workload[0], args.seed, args.seconds, bool(trace), args.smoke)
    declared = declaration["per_layer" if trace else "end_to_end"]
    if set(result.metrics) != {m["name"] for m in declared}:
        raise RuntimeError(
            f"emitted metrics {sorted(result.metrics)} differ from BENCHMARK.json"
        )
    metrics = {
        m["name"]: {"value": float(result.metrics[m["name"]]), "unit": m["unit"]}
        for m in declared
    }
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:14.6g} {metric['unit']}")
    info = {
        "workload": args.workload[0],
        "seed": args.seed,
        "trace": trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        **environment(),
        **result.info,
    }
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": bool(result.correct),
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


def parse_run(stdout: str) -> tuple[dict | None, dict]:
    """The result JSON (last line) and the info line of one run's output."""
    lines = stdout.strip().splitlines()
    info = next((json.loads(x[5:]) for x in lines if x.startswith("info ")), {})
    try:
        return json.loads(lines[-1]), info
    except (IndexError, json.JSONDecodeError):
        return None, info


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_suite(args, declaration: dict) -> int:
    out = Path(args.out) if args.out else DEFAULT_OUT
    out.parent.mkdir(parents=True, exist_ok=True)
    runs = []
    ok = True
    for seed in range(args.seed, args.seed + args.runs):
        for name in args.workload:
            for trace in args.trace:
                cmd = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
                if args.smoke:
                    cmd.append("--smoke")
                start = time.perf_counter()
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=RUN_TIMEOUT_S, cwd=ROOT)
                wall_s = time.perf_counter() - start
                result, info = parse_run(proc.stdout)
                good = proc.returncode == 0 and result is not None and result["correct"]
                ok &= good
                runs.append({"workload": name, "seed": seed, "trace": trace,
                             "returncode": proc.returncode, "wall_s": wall_s,
                             "result": result, "info": info})
                status = "ok" if good else f"FAILED (exit {proc.returncode})"
                print(f"seed {seed} {name:18s} trace {trace}: {status} in {wall_s:.1f} s",
                      flush=True)
                if not good:
                    sys.stderr.write(proc.stderr[-4000:])
                out.write_text(json.dumps({"runs": runs}, indent=1) + "\n")

    print(f"\nend-to-end metrics, median [q1, q3] over seeds (wrote {out})")
    for name in args.workload:
        done = [r["result"] for r in runs
                if r["workload"] == name and r["trace"] == 0 and r["result"]]
        if not done:
            continue
        print(name)
        for m in declaration["end_to_end"]:
            q1, med, q3 = quartiles([r["metrics"][m["name"]]["value"] for r in done])
            print(f"  {m['name']:18s} {med:12.5g} [{q1:.5g}, {q3:.5g}] {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    import_repro()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    declaration = load_declaration()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (first seed)")
    parser.add_argument("--runs", type=int, default=1, help="seeds per workload")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement length at reference speed "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0],
                        help="0: end-to-end metrics, 1: per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, about a second each")
    parser.add_argument("--out", help="suite mode: where to write the runs")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else float(declaration["run_seconds"])
    single = (
        args.workload is not None and len(args.workload) == 1
        and len(args.trace) == 1 and args.runs == 1 and args.out is None
    )
    args.workload = args.workload or list(WORKLOADS)
    return run_once(args, declaration) if single else run_suite(args, declaration)


if __name__ == "__main__":
    sys.exit(main())
