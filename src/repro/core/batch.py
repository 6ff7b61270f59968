"""Batched (GPU-kernel-style) local update data (paper Sections III-B, IV-D).

Algorithm 1's precomputation builds, for every component ``s``,

    Abar_s = A_s^T (A_s A_s^T)^{-1} A_s - I        (15b)
    bbar_s = A_s^T (A_s A_s^T)^{-1} b_s            (15c)

and the local update (15a) is then ``x_s = (1/rho) Abar_s d_s + bbar_s``
with ``d_s = -rho B_s x - lam_s``.  Writing ``v_s = B_s x + lam_s / rho``,
this is the affine projection

    x_s = M_s v_s + bbar_s,        M_s := I - A_s^T (A_s A_s^T)^{-1} A_s,

onto the affine subspace ``{A_s x = b_s}`` — notably independent of ``rho``.

On a GPU each CUDA block would own one component and its threads the entries
of ``x_s`` (Section IV-D).  The NumPy equivalent is a *padded batched
matmul*: components are grouped into width buckets (power-of-two padded
``n_s``), each bucket holding a dense ``(S_b, width, width)`` tensor, so one
``matmul`` call per bucket performs every component's projection — the exact
data-parallel structure of the paper's kernel, bounded padding waste
included.  The padded vectors of all buckets share one buffer, laid out
bucket after bucket, so a call moves the stacked vector in and out of the
padded layout with one gather each way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dpotrf as _dpotrf, dpotrs as _dpotrs

from repro.backend import Backend, get_backend
from repro.backend.blas import single_blas_thread
from repro.decomposition.decomposed import DecomposedOPF
from repro.qp.projection import bucket_width
from repro.utils.exceptions import DecompositionError


@single_blas_thread()
def projection_data(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Compute ``(M, bbar)`` of one component from its full-row-rank system.

    ``A A^T`` is factorized and solved with LAPACK ``dpotrf`` / ``dpotrs``
    called exactly as :func:`scipy.linalg.cho_factor` /
    :func:`~scipy.linalg.cho_solve` call them for fp64 input (upper
    factor, no finiteness check), minus their per-call wrapper work, on
    one BLAS thread (:mod:`repro.backend.blas`).

    Raises
    ------
    DecompositionError
        If ``A A^T`` is numerically singular (``A`` not full row rank —
        row-reduce first).
    """
    n = a.shape[1]
    m = a.shape[0]
    if m == 0:
        return np.eye(n), np.zeros(n)
    k = a @ a.T
    c, info = _dpotrf(k, lower=False, overwrite_a=False, clean=False)
    if info > 0:
        raise DecompositionError(
            "A_s A_s^T is singular; A_s must have full row rank (apply row reduction)"
        ) from sla.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(
            f'LAPACK reported an illegal value in {-info}-th argument '
            f'on entry to "POTRF".'
        )
    mmat = np.eye(n) - a.T @ _cho_solve(c, a)  # (A A^T)^{-1} A
    bbar = a.T @ _cho_solve(c, b)
    return mmat, bbar


def _cho_solve(c: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``cho_solve((c, False), rhs, check_finite=False)`` for fp64 ``c``."""
    rhs = np.asarray(rhs)
    if c.shape[1] != rhs.shape[0]:
        raise ValueError(f"incompatible dimensions ({c.shape} and {rhs.shape})")
    x, info = _dpotrs(c, rhs, lower=False, overwrite_b=False)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


@dataclass
class _Bucket:
    width: int
    comp_indices: np.ndarray  # (S_b,)
    proj: np.ndarray  # (S_b, width, width) in the backend's compute dtype
    bbar: np.ndarray  # (S_b, width)
    stack_idx: np.ndarray  # positions of bucket entries in the stacked z


@dataclass
class BatchedLocalSolver:
    """Precomputed batched projection operators for all components.

    Every call runs through one padded layout: the buckets' ``(S_b,
    width)`` blocks laid end to end.  ``pad_from_stack`` names the entry
    of ``v_stack`` (the stacked input plus a trailing zero slot) each
    padded slot reads, so padding reads zero; ``stack_from_pad`` names
    the padded slot each stacked entry comes back from.
    """

    n_local: int
    n_components: int
    buckets: list[_Bucket]
    component_location: dict[int, tuple[int, int]]  # comp -> (bucket, row)
    sizes: np.ndarray  # (S,) n_s per component
    flops: np.ndarray  # (S,) flop count of one local update per component
    pad_from_stack: np.ndarray  # (P,) v_stack position of each padded slot
    stack_from_pad: np.ndarray  # (n_local,) padded slot of each stacked entry
    backend: Backend = None  # type: ignore[assignment]
    v_stack: np.ndarray = field(init=False, repr=False)  # (n_local + 1,)
    v: np.ndarray = field(init=False, repr=False)  # (n_local,) the input buffer
    v_pad: np.ndarray = field(init=False, repr=False)  # (P,) padded input
    z_pad: np.ndarray = field(init=False, repr=False)  # (P,) padded output
    bbar_pad: np.ndarray = field(init=False, repr=False)  # (P,) every bucket's bbar

    def __post_init__(self):
        b = self.backend
        n_pad = self.pad_from_stack.size
        self.v_stack = b.zeros(self.n_local + 1)
        self.v = self.v_stack[: self.n_local]
        self.v_pad = b.empty(n_pad)
        self.z_pad = b.empty(n_pad)
        self.bbar_pad = b.empty(n_pad)
        # (proj, padded input, padded output) per bucket, the vectors as
        # (S_b, width, 1) views into the shared buffers.
        self._kernels = []
        start = 0
        for bucket in self.buckets:
            stop = start + bucket.bbar.size
            self.bbar_pad[start:stop] = bucket.bbar.reshape(-1)
            shape = (bucket.bbar.shape[0], bucket.width, 1)
            self._kernels.append((
                bucket.proj,
                self.v_pad[start:stop].reshape(shape),
                self.z_pad[start:stop].reshape(shape),
            ))
            start = stop

    @classmethod
    def from_decomposition(
        cls, dec: DecomposedOPF, backend: Backend | None = None
    ) -> "BatchedLocalSolver":
        return cls.from_parts(dec.components, dec.offsets, backend=backend)

    @classmethod
    def from_parts(
        cls, comps, offsets, projections=None, backend: Backend | None = None
    ) -> "BatchedLocalSolver":
        """Build from any sequence of equality components.

        Each component needs ``a`` (full-row-rank), ``b`` and ``n_vars``;
        ``offsets`` are the stacked slice boundaries.  This entry point is
        shared with the conic extension, whose *linear* components reuse the
        exact same batched projection kernels.

        ``projections``, if given, is a sequence aligned with ``comps`` of
        precomputed ``(M, bbar)`` pairs (the output of
        :func:`projection_data`); matching entries skip the factorization.
        The serving engine uses this to share factorizations across
        scenarios that leave a component's local system unchanged.

        ``backend`` chooses the execution substrate and dtype of the
        projection tensors; factorizations always run in fp64 (SciPy) and
        are rounded once when stored.  Defaults to pinned ``numpy64``
        (bit-identical to the historical implementation) — callers wanting
        the process default must resolve it themselves.
        """
        backend = backend if backend is not None else get_backend("numpy64")
        offsets = np.asarray(offsets, dtype=np.int64)
        if projections is not None and len(projections) != len(comps):
            raise ValueError("projections must align with comps")
        widths = [bucket_width(c.n_vars) for c in comps]
        by_width: dict[int, list[int]] = {}
        for s, w in enumerate(widths):
            by_width.setdefault(w, []).append(s)

        n_local = int(offsets[-1])
        n_pad = sum(len(idxs) * width for width, idxs in by_width.items())
        pad_from_stack = np.full(n_pad, n_local, dtype=np.int64)
        stack_from_pad = np.zeros(n_local, dtype=np.int64)
        buckets: list[_Bucket] = []
        location: dict[int, tuple[int, int]] = {}
        start = 0  # the bucket's first slot in the padded layout
        for width in sorted(by_width):
            idxs = by_width[width]
            sb = len(idxs)
            proj = np.zeros((sb, width, width))
            bbar = np.zeros((sb, width))
            stack_parts = []
            pad_parts = []
            for row, s in enumerate(idxs):
                comp = comps[s]
                n_s = comp.n_vars
                if projections is not None and projections[s] is not None:
                    mmat, bb = projections[s]
                else:
                    mmat, bb = projection_data(comp.a, comp.b)
                proj[row, :n_s, :n_s] = mmat
                bbar[row, :n_s] = bb
                first = int(offsets[s])
                stack_parts.append(np.arange(first, first + n_s, dtype=np.int64))
                first = start + row * width
                pad_parts.append(np.arange(first, first + n_s, dtype=np.int64))
                location[s] = (len(buckets), row)
            stack_idx = np.concatenate(stack_parts)
            pad_idx = np.concatenate(pad_parts)
            pad_from_stack[pad_idx] = stack_idx
            stack_from_pad[stack_idx] = pad_idx
            buckets.append(
                _Bucket(
                    width=width,
                    comp_indices=np.asarray(idxs, dtype=np.int64),
                    proj=backend.asarray(proj),
                    bbar=backend.asarray(bbar),
                    stack_idx=backend.index_array(stack_idx),
                )
            )
            start += sb * width
        sizes = np.array([c.n_vars for c in comps], dtype=np.int64)
        # One local update per component: dense matvec (2 n^2) plus the
        # add; the 2.0 factor promotes the int64 sizes to float.
        flops = 2.0 * sizes * sizes + sizes
        return cls(
            n_local=n_local,
            n_components=len(comps),
            buckets=buckets,
            component_location=location,
            sizes=sizes,
            flops=flops,
            pad_from_stack=backend.index_array(pad_from_stack),
            stack_from_pad=backend.index_array(stack_from_pad),
            backend=backend,
        )

    def solve(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Apply every component's projection to the stacked vector ``v``.

        ``z[s] = M_s v_s + bbar_s`` for all components: one gather into the
        padded layout, one batched matmul per width bucket, one gather back
        (into ``out`` when given).  A caller that builds ``v`` in place in
        :attr:`v`, the solver's input buffer, spares the copy in.  ``out``
        is flat, or any shape of ``n_local`` entries in stacked order, such
        as the ``(K, n_local / K)`` view of K scenarios' blocks inside a
        longer stacked vector.
        """
        b = self.backend
        if v is not self.v:
            if v.shape != (self.n_local,):
                raise ValueError(f"expected stacked vector of length {self.n_local}")
            self.v[...] = v
        b.take(self.v_stack, self.pad_from_stack, out=self.v_pad)
        for proj, v_pad, z_pad in self._kernels:
            b.matmul_batched(proj, v_pad, out=z_pad)
        self.z_pad += self.bbar_pad
        idx = self.stack_from_pad
        if out is not None and out.ndim > 1:
            idx = idx.reshape(out.shape)
        return b.take(self.z_pad, idx, out=out)

    def solve_one(self, s: int, v_s: np.ndarray) -> np.ndarray:
        """Un-batched single-component projection (CPU-agent execution path;
        also the unit the parallel simulator times)."""
        bucket_id, row = self.component_location[s]
        bucket = self.buckets[bucket_id]
        n_s = int(self.sizes[s])
        mmat = bucket.proj[row, :n_s, :n_s]
        return mmat @ v_s + bucket.bbar[row, :n_s]

    @property
    def padded_elements(self) -> int:
        """Total stored tensor elements (padding diagnostics)."""
        return int(sum(b.proj.size for b in self.buckets))
