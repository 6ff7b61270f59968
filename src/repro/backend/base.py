"""The ``Backend`` protocol: every array operation the ADMM loop needs.

The solver-free iteration is pure data-parallel linear algebra — a
scatter-add, a clip, one batched matmul, a saxpy and four norms — so the
whole algorithm ports across execution substrates by swapping the array
namespace those few primitives run on.  ``Backend`` pins that surface
down: allocation under an explicit :class:`~repro.backend.policy.
PrecisionPolicy`, the batched projection matmul, the consensus
scatter-add, the bound clip, and fp64-accumulated reductions.

The generic implementation below is written against the NumPy API
surface that CuPy mirrors (``xp``-style), so the CuPy backend is the same
code path with a different namespace and an explicit host/device
boundary (:meth:`Backend.to_numpy` / :meth:`Backend.from_numpy`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.backend.policy import PrecisionPolicy


class Backend:
    """Array-execution backend: an ``xp`` namespace plus a dtype policy.

    Subclasses set :attr:`xp` (the array namespace) and may override the
    host/device transfer hooks.  All ``repro`` hot loops must allocate
    through this object — never bare ``np.zeros`` / ``np.eye`` — so the
    fp32 policy cannot be silently promoted back to fp64.
    """

    #: Registry name (``numpy64``, ``numpy32``, ``cupy``).
    name: str = "abstract"
    #: True when the backend's arrays live on a device (host transfers
    #: needed for results and warm-start caches).
    device: bool = False

    def __init__(self, policy: PrecisionPolicy):
        self.policy = policy
        self.compute_dtype = np.dtype(policy.compute)
        self.accumulate_dtype = np.dtype(policy.accumulate)

    # -- namespace -----------------------------------------------------
    @property
    def xp(self):
        """The array namespace (``numpy`` or ``cupy``)."""
        raise NotImplementedError

    # -- allocation (compute dtype unless stated otherwise) ------------
    def asarray(self, a, copy: bool = False):
        """``a`` as a compute-dtype backend array (no copy if compliant)."""
        arr = self.xp.asarray(a, dtype=self.compute_dtype)
        if copy and arr is a:
            arr = arr.copy()
        return arr

    def zeros(self, shape):
        return self.xp.zeros(shape, dtype=self.compute_dtype)

    def empty(self, shape):
        return self.xp.empty(shape, dtype=self.compute_dtype)

    def full(self, shape, value):
        return self.xp.full(shape, value, dtype=self.compute_dtype)

    def eye(self, n):
        return self.xp.eye(n, dtype=self.compute_dtype)

    def index_array(self, idx):
        """Integer index vector in the backend's namespace (int64)."""
        return self.xp.asarray(idx, dtype=self.xp.int64)

    # -- the ADMM primitives -------------------------------------------
    def scatter_add(self, idx, weights, minlength: int):
        """``out[i] = sum(weights[idx == i])`` — the consensus gather of
        the global update (18).  Accumulates in fp64 (``bincount``'s
        native accumulator), then rounds once to the compute dtype."""
        out = self.xp.bincount(idx, weights=weights, minlength=minlength)
        return out.astype(self.compute_dtype, copy=False)

    def clip(self, x, lo, hi, out=None):
        """Elementwise box projection (the only place bounds (9d) live),
        into ``out`` when given (``x`` itself included).

        The same bits as ``xp.clip`` (signed zeros and NaN included)
        without its Python wrapper.
        """
        xp = self.xp
        return xp.minimum(xp.maximum(x, lo, out=out), hi, out=out)

    def matmul_batched(self, proj, v_pad, out=None):
        """One padded batched projection: ``(S, w, w) @ (S, w, 1)``, written
        into the ``(S, w, 1)`` ``out`` when given.  A flat ``(S*w,)``
        ``v_pad`` gives a flat product.

        The NumPy/CuPy equivalent of the paper's one-block-per-component
        CUDA kernel (Section IV-D).
        """
        if v_pad.ndim == 1:
            sb, width = proj.shape[0], proj.shape[1]
            v_pad = v_pad.reshape(sb, width, 1)
            return self.xp.matmul(proj, v_pad, out=out).reshape(-1)
        return self.xp.matmul(proj, v_pad, out=out)

    def take(self, a, idx, out=None):
        """``a[idx]`` through an index vector built at set-up, into ``out``
        when given: the gathers around the batched projection.  Such
        indices are always in range, so ``mode="clip"`` changes no value;
        it only spares NumPy the copy of ``out`` its default mode makes."""
        return a.take(idx, out=out, mode="clip")

    def norm(self, v) -> float:
        """Euclidean norm accumulated in the accumulate dtype (fp64).

        Exactly what ``xp.linalg.norm`` computes for a vector, without
        its Python wrapper.
        """
        v = self.xp.asarray(v, dtype=self.accumulate_dtype).ravel()
        return math.sqrt(v.dot(v))

    def dot(self, a, b) -> float:
        """Inner product accumulated in fp64 (objective evaluation)."""
        a = self.xp.asarray(a, dtype=self.accumulate_dtype)
        b = self.xp.asarray(b, dtype=self.accumulate_dtype)
        return float(a @ b)

    # -- host/device boundary ------------------------------------------
    def to_numpy(self, a) -> np.ndarray:
        """Backend array -> host fp64 ndarray (results, caches, I/O)."""
        return np.asarray(a, dtype=np.float64)

    def from_numpy(self, a):
        """Host array -> backend compute array."""
        return self.asarray(a)

    # -- introspection -------------------------------------------------
    def capabilities(self) -> dict:
        """Machine-readable description (the ``repro backends`` listing)."""
        return {
            "name": self.name,
            "device": self.device,
            "compute_dtype": str(self.compute_dtype),
            "accumulate_dtype": str(self.accumulate_dtype),
            "precision": self.policy.name,
            "refinement": self.policy.refine,
            "itemsize": self.policy.itemsize,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name} ({self.policy.name})>"
