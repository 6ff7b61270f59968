"""Convergence diagnostics for distributed solves.

ADMM runs that stop on the relative criterion (16) can hide very different
solution qualities (see EXPERIMENTS.md); this module turns a finished
:class:`~repro.core.results.ADMMResult` into the quantities worth looking
at before trusting a dispatch:

* per-variable-kind consensus gaps (where do global and local copies still
  disagree — voltages? flows? load variables?),
* residual-trace health (tail slope, stall detection),
* a one-call :func:`convergence_report`.
"""

from __future__ import annotations

# Post-hoc host-side analytics over a *finished* solve: nothing here runs
# in the iteration hot path or on device arrays, so raw NumPy fp64 is the
# right tool and backend routing would add nothing.
# repro-lint: disable-file=R001,R003

from dataclasses import dataclass

import numpy as np

from repro.core.results import ADMMResult


@dataclass(frozen=True)
class KindGap:
    """Consensus disagreement statistics for one variable kind."""

    kind: str
    n_copies: int
    max_gap: float
    rms_gap: float


def consensus_gaps_by_kind(dec, result: ADMMResult) -> list[KindGap]:
    """Split ``|B x - z|`` by the variable kind of each local copy.

    ``dec`` is any decomposition with a ``model`` carrying ``var_index``:
    the LP's :class:`~repro.decomposition.DecomposedOPF` or the conic
    decomposition.
    """
    bx = result.x[dec.global_cols]
    gap = np.abs(bx - result.z)
    kinds = np.array([dec.model.var_index.key_of(g)[0] for g in dec.global_cols])
    out: list[KindGap] = []
    for kind in sorted(set(kinds)):
        mask = kinds == kind
        g = gap[mask]
        out.append(
            KindGap(
                kind=kind,
                n_copies=int(mask.sum()),
                max_gap=float(g.max()),
                rms_gap=float(np.sqrt(np.mean(g**2))),
            )
        )
    return out


def residual_tail_slope(values, window: int = 100) -> float:
    """Log-linear slope of the last ``window`` residuals per iteration.

    Negative = still improving; ~0 = stalled.  Returns 0 for short traces.
    """
    v = np.asarray(values, dtype=float)
    v = v[-window:]
    v = v[v > 0]
    if v.size < 3:
        return 0.0
    y = np.log(v)
    t = np.arange(y.size, dtype=float)
    slope = float(np.polyfit(t, y, 1)[0])
    return slope


def is_stalled(result: ADMMResult, window: int = 200, tol: float = 1e-5) -> bool:
    """True if both residual traces stopped improving over the tail window.

    Raises
    ------
    ValueError
        If the result carries no history.
    """
    if result.history is None:
        raise ValueError("stall detection needs record_history=True")
    sp = residual_tail_slope(result.history.pres, window)
    sd = residual_tail_slope(result.history.dres, window)
    return sp > -tol and sd > -tol


def convergence_report(dec, result: ADMMResult) -> dict:
    """One-call solution-quality summary of a solve of ``dec.model``."""
    model = dec.model
    report = {
        "algorithm": result.algorithm,
        "converged": result.converged,
        "iterations": result.iterations,
        "objective": result.objective,
        "pres": result.pres,
        "dres": result.dres,
        "equality_violation": model.equality_violation(result.x),
        "bound_violation": model.bound_violation(result.x),
        "worst_consensus_kind": None,
        "stalled": None,
    }
    gaps = consensus_gaps_by_kind(dec, result)
    worst = max(gaps, key=lambda g: g.max_gap)
    report["worst_consensus_kind"] = f"{worst.kind} (max {worst.max_gap:.2e})"
    if result.history is not None:
        report["stalled"] = is_stalled(result)
    return report
