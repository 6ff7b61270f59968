"""Export of assembled problems and solve results.

* :func:`save_lp_npz` / :func:`load_lp_npz` round-trip the centralized LP's
  numerical data (A, b, c, bounds) for external tooling.
* :func:`result_to_dict` flattens an :class:`ADMMResult` (with residual
  history) for JSON logging by the benchmark harness.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.core.results import ADMMResult
from repro.formulation.centralized import CentralizedLP


def save_lp_npz(lp: CentralizedLP, path: str | Path) -> None:
    """Save the LP's numerical payload to a compressed ``.npz``."""
    a = lp.a_matrix.tocoo()
    np.savez_compressed(
        path,
        a_row=a.row,
        a_col=a.col,
        a_data=a.data,
        a_shape=np.array(a.shape),
        b=lp.b_vector,
        c=lp.cost,
        lb=lp.lb,
        ub=lp.ub,
    )


def load_lp_npz(path: str | Path) -> dict:
    """Load the numerical payload saved by :func:`save_lp_npz`.

    Returns a dict with ``a`` (CSR), ``b``, ``c``, ``lb``, ``ub`` — the
    symbolic structure (variable keys, rows) is not round-tripped.
    """
    with np.load(path) as data:
        a = sp.csr_matrix(
            (data["a_data"], (data["a_row"], data["a_col"])),
            shape=tuple(data["a_shape"]),
        )
        return {
            "a": a,
            "b": data["b"].copy(),
            "c": data["c"].copy(),
            "lb": data["lb"].copy(),
            "ub": data["ub"].copy(),
        }


def result_to_dict(result: ADMMResult, include_vectors: bool = False) -> dict:
    """JSON-compatible summary of a solve result."""
    out = {
        "algorithm": result.algorithm,
        "objective": result.objective,
        "iterations": result.iterations,
        "converged": result.converged,
        "pres": result.pres,
        "dres": result.dres,
        "primal_violation": result.primal_violation,
        "timers": dict(result.timers),
    }
    if result.history is not None:
        out["history"] = {k: v.tolist() for k, v in result.history.arrays().items()}
    if include_vectors:
        out["x"] = result.x.tolist()
    return out


def save_result(result: ADMMResult, path: str | Path, include_vectors: bool = False) -> None:
    """Write a result summary as JSON."""
    Path(path).write_text(json.dumps(result_to_dict(result, include_vectors)))
