"""Row reduction of local equality systems (paper Section IV-B).

Algorithm 1 requires every component matrix ``A_s`` to have full row rank so
that ``A_s A_s^T`` is invertible and the local update (15) is well defined.
Component systems assembled from the physical model are frequently rank
deficient (e.g. redundant conservation rows), so — exactly as the paper
prescribes — we bring the augmented matrix ``[A_s | b_s]`` to reduced row
echelon form with partial pivoting, drop the zero rows, and fail loudly on
an inconsistent system (a zero row with nonzero right-hand side).

The matrices involved are tiny (Table IV: at most a few tens of rows), so a
dense O(m^2 n) elimination is more than fast enough and, as the paper notes,
trivially parallel across components.
"""

from __future__ import annotations

import numpy as np

from repro.backend.blas import single_blas_thread
from repro.backend.policy import HOST_DTYPE
from repro.utils.exceptions import InfeasibleError


@single_blas_thread()
def reduced_row_echelon(
    a: np.ndarray,
    b: np.ndarray,
    tol: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Reduce ``[a | b]`` to RREF and return the full-row-rank system (on
    one BLAS thread, :mod:`repro.backend.blas`).

    Parameters
    ----------
    a:
        Dense coefficient matrix, shape ``(m, n)``.
    b:
        Right-hand side, shape ``(m,)``.
    tol:
        Pivot threshold, applied relative to the largest absolute entry of
        the augmented matrix, with the smallest normal float as an absolute
        floor.

    Returns
    -------
    (a_red, b_red, pivot_cols):
        ``a_red`` has full row rank equal to ``rank([a | b])`` restricted to
        consistent systems; ``pivot_cols`` lists the pivot column of each
        returned row.

    Raises
    ------
    InfeasibleError
        If elimination produces a row ``0 = rhs`` with ``|rhs|`` above the
        tolerance — the local system is inconsistent.
    """
    a = np.asarray(a, dtype=HOST_DTYPE)
    b = np.asarray(b, dtype=HOST_DTYPE).reshape(-1)
    m, n = a.shape
    if b.shape != (m,):
        raise ValueError(f"rhs shape {b.shape} incompatible with matrix {a.shape}")
    if m == 0:
        return a.copy(), b.copy(), []
    aug = np.empty((m, n + 1), dtype=HOST_DTYPE)
    aug[:, :n] = a
    aug[:, n] = b
    # `ndarray` methods and a broadcast product in place of `np.max`,
    # `np.argmax` and `np.outer`: the same operations in the same order,
    # without the wrapper dispatch (this runs once per pivot, on systems
    # of a few tens of rows).
    scale = np.abs(aug).max()
    if scale == 0.0:
        return np.zeros((0, n)), np.zeros(0), []
    # Pivots are judged relative to the system's own magnitude; the
    # inconsistency check below keeps the absolute floor so sub-tolerance
    # noise rows (`0 = 1e-30`) are still dropped rather than rejected.
    # The absolute floor keeps a subnormal system (where `tol * scale`
    # underflows to 0) from normalising a denormal pivot.
    threshold = max(tol * scale, np.finfo(HOST_DTYPE).tiny)
    infeasible_threshold = tol * max(scale, 1.0)

    rank = 0
    pivot_cols: list[int] = []
    for col in range(n):
        if rank >= m:
            break
        pivot = rank + int(np.abs(aug[rank:, col]).argmax())
        if abs(aug[pivot, col]) <= threshold:
            continue
        if pivot != rank:
            aug[[rank, pivot]] = aug[[pivot, rank]]
        row = aug[rank]
        row /= row[col]
        # `> 0` rather than `!= 0` keeps NaN rows out of the update.
        others = np.abs(aug[:, col]) > 0
        others[rank] = False
        aug[others] -= aug[others, col][:, None] * row
        pivot_cols.append(col)
        rank += 1

    # Rows below the rank must be (numerically) zero in the coefficient part;
    # a surviving RHS there means 0 = rhs: inconsistent.
    if rank < m:
        tail_rhs = np.abs(aug[rank:, n])
        bad = tail_rhs > infeasible_threshold
        if np.any(bad):
            raise InfeasibleError(
                f"inconsistent local system: 0 = {float(tail_rhs[bad][0]):.3e} "
                f"after row reduction"
            )
    return aug[:rank, :n], aug[:rank, n], pivot_cols


def row_rank(a: np.ndarray, tol: float = 1e-9) -> int:
    """Numerical row rank via the same elimination used for reduction."""
    red, _, _ = reduced_row_echelon(a, np.zeros(a.shape[0]), tol=tol)
    return red.shape[0]
