"""Component-to-rank assignment strategies.

The paper distributes the S subsystems "nearly evenly" across ranks
(Section V-A).  :func:`assign_even` reproduces that; :func:`assign_greedy`
is a cost-aware longest-processing-time heuristic shipped as an extension
(ablated in the benchmarks — it tightens the makespan when component costs
are skewed, e.g. mixed leaf/trunk components).
"""

from __future__ import annotations

import numpy as np

from repro.backend.policy import HOST_DTYPE


def assign_even(n_components: int, n_ranks: int) -> np.ndarray:
    """Round-robin-free contiguous near-even split; returns rank per component.

    Raises
    ------
    ValueError
        If there are fewer components than ranks requested.
    """
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    if n_components < 1:
        raise ValueError("need at least one component")
    n_ranks = min(n_ranks, n_components)
    # Contiguous blocks of size ceil or floor, matching MPI scatterv usage.
    base = n_components // n_ranks
    extra = n_components % n_ranks
    owner = np.empty(n_components, dtype=np.int64)
    start = 0
    for r in range(n_ranks):
        size = base + (1 if r < extra else 0)
        owner[start : start + size] = r
        start += size
    return owner


def assign_greedy(costs: np.ndarray, n_ranks: int) -> np.ndarray:
    """Longest-processing-time-first assignment by per-component cost."""
    costs = np.asarray(costs, dtype=HOST_DTYPE)
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    n_ranks = min(n_ranks, len(costs))
    owner = np.empty(len(costs), dtype=np.int64)
    totals = np.zeros(n_ranks)
    for s in np.argsort(-costs):
        r = int(np.argmin(totals))
        owner[s] = r
        totals[r] += costs[s]
    return owner


def rank_loads(costs: np.ndarray, owner: np.ndarray, n_ranks: int) -> np.ndarray:
    """Total cost per rank under an assignment."""
    return np.bincount(owner, weights=np.asarray(costs, dtype=HOST_DTYPE), minlength=n_ranks)


def rank_partition(
    offsets: np.ndarray, owner: np.ndarray, n_ranks: int
) -> tuple[list[list[int]], list[np.ndarray]]:
    """Per-rank component lists and stacked index arrays of an assignment.

    ``offsets`` are the stacked slice boundaries of the decomposition
    (``dec.offsets``); the returned ``slices[r]`` indexes rank r's entries
    of any stacked local vector (``z``, ``lam``, ``B x``).  The distributed
    runner builds its initial layout with it and rebuilds the partition
    after a failover.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    components: list[list[int]] = [[] for _ in range(n_ranks)]
    for s, r in enumerate(owner):
        components[int(r)].append(s)
    slices: list[np.ndarray] = []
    for r in range(n_ranks):
        if components[r]:
            idx = np.concatenate(
                [
                    np.arange(offsets[s], offsets[s + 1], dtype=np.int64)
                    for s in components[r]
                ]
            )
        else:
            idx = np.zeros(0, dtype=np.int64)
        slices.append(idx)
    return components, slices


def reassign_surviving(n_components: int, survivors: list[int]) -> np.ndarray:
    """Re-spread all components near-evenly over the surviving rank ids.

    Recovery path of the distributed runner: after a rank failure the
    dead rank's components must land on survivors.  The result reuses
    :func:`assign_even` over the compacted survivor set and maps the
    compact ids back to the actual (non-contiguous) surviving rank numbers,
    so the returned array is a drop-in ``owner`` vector for the original
    communicator size.
    """
    if not survivors:
        raise ValueError("no surviving ranks to reassign components to")
    survivors = sorted(survivors)
    compact = assign_even(n_components, len(survivors))
    mapping = np.asarray(survivors, dtype=np.int64)
    return mapping[compact]
