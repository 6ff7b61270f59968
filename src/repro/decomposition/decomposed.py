"""The decomposed distributed OPF model (paper eq. (9)).

:func:`decompose` regroups a :class:`CentralizedLP` into component
subproblems following the partition of Section V-A, and precomputes the
concatenated consensus structure of Section IV-C:

* ``global_cols`` — concatenation of every component's ``B_s`` index vector,
  i.e. the row->column map of the stacked 0-1 matrix ``B`` in (17);
* ``counts`` — the diagonal of ``B^T B`` (how many local copies each global
  variable has), which makes the global update (18) a trivial scaled
  scatter-add;
* ``offsets`` — slice boundaries of each component inside the stacked local
  vector ``z = [x_1; ...; x_S]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend.policy import HOST_DTYPE
import scipy.sparse as sp

from repro.decomposition.partition import (
    ComponentSpec,
    PartitionCounts,
    partition_components,
)
from repro.decomposition.subproblems import ComponentSubproblem, build_subproblem
from repro.formulation.centralized import CentralizedLP
from repro.utils.exceptions import DecompositionError


@dataclass
class SizeStats:
    """Summary statistics of one subproblem dimension (Table IV rows)."""

    minimum: int
    maximum: int
    mean: float
    stdev: float
    total: int

    @classmethod
    def of(cls, values: list[int]) -> "SizeStats":
        arr = np.asarray(values, dtype=HOST_DTYPE)
        return cls(
            minimum=int(arr.min()),
            maximum=int(arr.max()),
            mean=float(arr.mean()),
            stdev=float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
            total=int(arr.sum()),
        )


@dataclass
class DecomposedOPF:
    """Component-wise distributed form of a centralized LP."""

    lp: CentralizedLP
    specs: list[ComponentSpec]
    components: list[ComponentSubproblem]
    partition_counts: PartitionCounts
    global_cols: np.ndarray  # (sum n_s,) concatenated B_s index maps
    counts: np.ndarray  # (n,) diag of B^T B
    offsets: np.ndarray  # (S+1,) component slices into z

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def n_local(self) -> int:
        """Total stacked local dimension: sum of n_s."""
        return int(self.offsets[-1])

    @property
    def model(self) -> CentralizedLP:
        """The decomposed model (objective, bounds, initial point)."""
        return self.lp

    def component_slice(self, s: int) -> slice:
        return slice(int(self.offsets[s]), int(self.offsets[s + 1]))

    def consensus_matrix(self) -> sp.csr_matrix:
        """The stacked 0-1 matrix ``B`` of (17), materialized (tests/IO)."""
        n_rows = self.n_local
        data = np.ones(n_rows)
        indptr = np.arange(n_rows + 1, dtype=np.int64)
        return sp.csr_matrix(
            (data, self.global_cols.astype(np.int64), indptr),
            shape=(n_rows, self.lp.n_vars),
        )

    def stacked_raw_system(self) -> tuple[sp.csr_matrix, np.ndarray]:
        """``vstack_s(A_s^{raw} B_s)`` and ``vstack(b_s^{raw})``.

        By construction this reproduces the centralized ``A x = b`` up to a
        row permutation — the equivalence of models (7) and (9) that the
        tests assert.
        """
        blocks = []
        rhs = []
        n = self.lp.n_vars
        for comp in self.components:
            m = comp.a_raw.shape[0]
            if m == 0:
                continue
            # Local dense rows scattered to global columns.
            rows_idx, cols_idx = np.nonzero(comp.a_raw)
            block = sp.csr_matrix(
                (comp.a_raw[rows_idx, cols_idx], (rows_idx, comp.global_cols[cols_idx])),
                shape=(m, n),
            )
            blocks.append(block)
            rhs.append(comp.b_raw)
        a = sp.vstack(blocks, format="csr") if blocks else sp.csr_matrix((0, n))
        b = np.concatenate(rhs) if rhs else np.zeros(0)
        return a, b

    def size_stats(self) -> tuple[SizeStats, SizeStats]:
        """(m_s stats, n_s stats) — the paper's Table IV."""
        ms = [c.n_rows for c in self.components]
        ns = [c.n_vars for c in self.components]
        return SizeStats.of(ms), SizeStats.of(ns)


def decompose(
    lp: CentralizedLP,
    merge_leaves: bool = True,
    rref_tol: float = 1e-9,
) -> DecomposedOPF:
    """Decompose a centralized LP into the component-wise model (9).

    Raises
    ------
    DecompositionError
        If any constraint row has an owner outside the partition, or some
        global variable has no local copy (consensus coverage violated).
    """
    specs, counts = partition_components(lp.network, merge_leaves=merge_leaves)
    owner_to_spec: dict[tuple, int] = {}
    for idx, spec in enumerate(specs):
        for owner in spec.owners():
            if owner in owner_to_spec:
                raise DecompositionError(f"owner {owner} claimed twice")
            owner_to_spec[owner] = idx

    rows_by_spec: list[list] = [[] for _ in specs]
    for row in lp.rows:
        try:
            rows_by_spec[owner_to_spec[row.owner]].append(row)
        except KeyError as exc:
            raise DecompositionError(f"row {row.tag!r} has unknown owner {row.owner}") from exc

    glb = lp.var_index.lower_bounds()
    gub = lp.var_index.upper_bounds()
    components = [
        build_subproblem(
            lp.network,
            spec,
            rows,
            lp.var_index,
            rref_tol=rref_tol,
            global_lb=glb,
            global_ub=gub,
        )
        for spec, rows in zip(specs, rows_by_spec)
    ]

    sizes = np.array([c.n_vars for c in components], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    global_cols = (
        np.concatenate([c.global_cols for c in components])
        if components
        else np.zeros(0, dtype=np.int64)
    )
    copy_counts = np.bincount(global_cols, minlength=lp.n_vars).astype(HOST_DTYPE)
    if np.any(copy_counts == 0):
        missing = int(np.argmax(copy_counts == 0))
        raise DecompositionError(
            f"global variable {lp.var_index.key_of(missing)} has no local copy"
        )
    return DecomposedOPF(
        lp=lp,
        specs=specs,
        components=components,
        partition_counts=counts,
        global_cols=global_cols,
        counts=copy_counts,
        offsets=offsets,
    )
