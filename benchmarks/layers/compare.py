"""Compare two sets of benchmark runs under BENCHMARK.json's bounds.

    python3 benchmarks/layers/compare.py PARENT.json... -- CHANGE.json...
        [--claim METRIC@WORKLOAD]... [--out FILE]

Each file is a run set written by ``run.py`` in suite mode.  Runs pair up
by (workload, seed).  For every workload and end-to-end metric the table
shows each side's median and quartiles and one verdict:

* ``worse`` - the change's median is worse than the parent's by more than
  the metric's bound;
* ``improved`` - at least 10 pairs, the change wins at least 9 in 10 of
  them (ties count for neither side), and the medians differ by more than
  the parent's interquartile range;
* ``unresolved`` - the parent's own spread (interquartile range over
  median) is wider than the bound, and not every change run reads better
  than every parent run;
* ``unchanged`` - otherwise.

A pair whose ``calib_s`` (the fixed NumPy loop every run times) differs by
more than 10% is counted as machine drift.  When both sides hold traced
runs, a second table lists the per-layer medians.  The exit status is 1
when a row is worse, a run failed, or a claimed row is not improved.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from run import load_declaration, quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9
DRIFT = 0.10
ENVIRONMENT = ("nproc", "machine", "python", "numpy", "scipy")


def load_runs(paths: list[str]) -> list[dict]:
    runs = []
    for path in paths:
        runs.extend(json.loads(Path(path).read_text())["runs"])
    return runs


def environments(runs: list[dict]) -> list[dict]:
    """The distinct machines and library versions a side ran on."""
    found = []
    for run in runs:
        env = {key: run["info"].get(key) for key in ENVIRONMENT}
        if env not in found:
            found.append(env)
    return found


def by_seed(runs: list[dict], workload: str, trace: int) -> dict[int, list[dict]]:
    grouped: dict[int, list[dict]] = defaultdict(list)
    for run in runs:
        if run["workload"] == workload and run["trace"] == trace:
            grouped[run["seed"]].append(run)
    return grouped


def usable(run: dict) -> bool:
    return run["returncode"] == 0 and bool(run["result"]) and run["result"]["correct"]


def value(run: dict, metric: str) -> float:
    return run["result"]["metrics"][metric]["value"]


def summary(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def verdict(parent: dict, change: dict, pairs: list[tuple[float, float]],
            lower_is_better: bool, bound: float) -> str:
    sign = 1.0 if lower_is_better else -1.0
    p_med, c_med = parent["median"], change["median"]
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "worse"
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (c_med - p_med) < 0
            and abs(c_med - p_med) > parent["q3"] - parent["q1"]):
        return "improved"
    all_better = all(sign * (c - p) < 0 for c in change["values"] for p in parent["values"])
    if parent["spread"] > bound and not all_better:
        return "unresolved"
    return "unchanged"


def compare(parent_runs: list[dict], change_runs: list[dict], declaration: dict) -> dict:
    workloads = [w["name"] for w in declaration["workloads"]]
    rows, layers, failures = [], [], []
    for workload in workloads:
        for trace in (0, 1):
            p_seeds = by_seed(parent_runs, workload, trace)
            c_seeds = by_seed(change_runs, workload, trace)
            for side, seeds in (("parent", p_seeds), ("change", c_seeds)):
                failures += [f"{side} {workload} trace {trace} seed {s}"
                             for s, runs in seeds.items() for r in runs if not usable(r)]
            pairs = [(p, c) for s in sorted(set(p_seeds) & set(c_seeds))
                     for p, c in zip(p_seeds[s], c_seeds[s]) if usable(p) and usable(c)]
            if not pairs:
                continue
            drift = sum(1 for p, c in pairs
                        if abs(c["info"]["calib_s"] / p["info"]["calib_s"] - 1) > DRIFT)
            for m in declaration["per_layer" if trace else "end_to_end"]:
                name = m["name"]
                pv = [value(p, name) for p, _ in pairs]
                cv = [value(c, name) for _, c in pairs]
                parent, change = summary(pv), summary(cv)
                row = {"workload": workload, "metric": name, "unit": m["unit"],
                       "pairs": len(pairs), "drift_pairs": drift,
                       "parent": parent, "change": change}
                if trace:
                    layers.append(row)
                    continue
                row["bound"] = m["bound"]
                row["verdict"] = verdict(parent, change, list(zip(pv, cv)),
                                         m["better"] == "lower", m["bound"])
                rows.append(row)
    return {"rows": rows, "layers": layers, "failures": failures}


def print_report(report: dict, claims: set[tuple[str, str]]) -> None:
    head = (f"{'workload':18s} {'metric':15s} {'parent median [q1, q3]':>32s} "
            f"{'change median [q1, q3]':>32s} {'diff':>7s} {'spread':>6s} "
            f"{'pairs':>5s} {'drift':>5s}  verdict")
    print(head)
    for r in report["rows"]:
        p, c = r["parent"], r["change"]
        diff = (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
        mark = "  <- claim" if (r["metric"], r["workload"]) in claims else ""
        print(f"{r['workload']:18s} {r['metric']:15s} "
              f"{p['median']:12.5g} [{p['q1']:.5g}, {p['q3']:.5g}] {r['unit']:>4s} "
              f"{c['median']:12.5g} [{c['q1']:.5g}, {c['q3']:.5g}] {r['unit']:>4s} "
              f"{diff:+7.1%} {p['spread']:6.1%} {r['pairs']:5d} {r['drift_pairs']:5d}  "
              f"{r['verdict']}{mark}")
    if report["layers"]:
        print(f"\nper-layer medians (traced runs)\n{'workload':18s} {'metric':30s} "
              f"{'parent':>12s} {'change':>12s} {'ratio':>7s}")
        for r in report["layers"]:
            p, c = r["parent"]["median"], r["change"]["median"]
            ratio = f"{c / p:7.3f}" if p else "      -"
            print(f"{r['workload']:18s} {r['metric']:30s} {p:12.5g} {c:12.5g} {ratio} "
                  f"{r['unit']}")
    for failure in report["failures"]:
        print(f"failed run: {failure}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        sys.exit("usage: compare.py PARENT.json... -- CHANGE.json... "
                 "[--claim METRIC@WORKLOAD]... [--out FILE]")
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("change", nargs="+", help="run sets of the change")
    parser.add_argument("--claim", action="append", default=[],
                        help="METRIC@WORKLOAD that the change claims to improve")
    parser.add_argument("--out", help="write the comparison as JSON")
    args = parser.parse_args(argv[split + 1:])
    parent_paths = argv[:split]
    claims = {tuple(c.split("@", 1)) for c in args.claim}
    parent_runs, change_runs = load_runs(parent_paths), load_runs(args.change)
    report = compare(parent_runs, change_runs, load_declaration())
    report["parent"] = {"files": parent_paths, "environments": environments(parent_runs)}
    report["change"] = {"files": args.change, "environments": environments(change_runs)}
    print_report(report, claims)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    verdicts = {(r["metric"], r["workload"]): r["verdict"] for r in report["rows"]}
    unmet = [c for c in claims if verdicts.get(c) != "improved"]
    for metric, workload in unmet:
        print(f"claim not met: {metric}@{workload} is {verdicts.get((metric, workload))}")
    worse = any(v == "worse" for v in verdicts.values())
    return 1 if worse or unmet or report["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
