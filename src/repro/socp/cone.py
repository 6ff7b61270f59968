"""Closed-form projections onto second-order cones.

The paper's stated future work is a GPU-accelerated distributed algorithm
for the *convex relaxation* of the OPF model.  The relaxation's only
non-linear ingredient is a rotated second-order cone; this module provides
the exact Euclidean projection so the conic local update stays solver-free,
in the spirit of Algorithm 1.

The rotated cone is taken in its **isometric normal form**

    K_rot = { (u, v, w_vec) : 2 u v >= ||w_vec||^2,  u >= 0,  v >= 0 }.

The orthogonal rotation ``(u, v) -> (s, d) = ((u+v)/sqrt(2), (u-v)/sqrt(2))``
maps it *isometrically* onto the standard cone ``||(d, w_vec)|| <= s``
(because ``s^2 - d^2 = 2 u v``), so the textbook standard-cone projection
formula transfers exactly.  The factor 2 matters: the variant
``u v >= ||w||^2`` is only a *linear* (non-isometric) image of the standard
cone and admits no such closed form — model variables should be scaled so
their constraint takes the factor-2 form (see :mod:`repro.socp.bfm`).

Dtype discipline: every projection computes in host fp64 (the square roots
and cancellations want the headroom) but returns in the *caller's* dtype,
mirroring :func:`repro.qp.projection.project_box_affine` — an fp32 backend's
iterates pass through without silent promotion, and fp64 inputs round-trip
bit-identically (the final cast is a no-op view).
"""

from __future__ import annotations

import numpy as np

from repro.backend.policy import HOST_DTYPE

SQRT2 = np.sqrt(2.0)


def project_soc(t: float, z: np.ndarray) -> tuple[float, np.ndarray]:
    """Project ``(t, z)`` onto the standard cone ``||z|| <= t``."""
    z_in = np.asarray(z)
    z = z_in.astype(HOST_DTYPE, copy=False)
    nz = float(np.linalg.norm(z))
    if nz <= t:
        return float(t), z_in.copy()
    if nz <= -t:
        return 0.0, np.zeros_like(z_in)
    alpha = 0.5 * (1.0 + t / nz)
    return float(alpha * nz), (alpha * z).astype(z_in.dtype, copy=False)


class ConeKernel:
    """Closed-form projections of ``m`` rows at once, in fp64 buffers
    allocated here, so a call allocates nothing.

    :meth:`standard` projects each row ``(s, tail)`` of :attr:`s` and
    :attr:`tail` (``(m, d)``) onto the standard cone ``||tail|| <= s``:

    * inside rows stay as they are;
    * polar rows (``||tail|| <= -s``) go to the origin;
    * every other row is scaled to the boundary by
      ``alpha = (1 + s / ||tail||) / 2``.

    The origin is both inside and polar, and inside wins, so a signed zero
    ``s`` passes through.  The norm reduces the contiguous ``(m, d)``
    squares, as ``np.linalg.norm(tail, axis=1)`` does, so every bit
    matches the textbook formula.

    :meth:`rotated` projects rows ``(u, v, w_1 .. w_{d-1})`` of :attr:`x`
    onto the rotated cone through the isometry ``(s, d) = ((u + v),
    (u - v)) / sqrt(2)``, and writes them into ``out``.
    """

    def __init__(self, m: int, d: int):
        self.x = np.empty((m, d + 1))
        self.s, self.tail = np.empty(m), np.empty((m, d))
        self._sq, self._nz, self._alpha = np.empty((m, d)), np.empty(m), np.empty(m)
        self._neg, self._result = np.empty(m), np.empty((m, d + 1))
        self._inside, self._polar, self._boundary = (np.empty(m, bool) for _ in range(3))
        self.t_out, self.z_out = np.empty(m), np.empty((m, d))

    def standard(self) -> None:
        """Project ``(s, tail)`` into ``(t_out, z_out)``."""
        s, tail, nz, alpha = self.s, self.tail, self._nz, self._alpha
        inside, polar, boundary = self._inside, self._polar, self._boundary
        t_out, z_out = self.t_out, self.z_out
        np.multiply(tail, tail, out=self._sq)
        np.add.reduce(self._sq, axis=1, out=nz)
        np.sqrt(nz, out=nz)
        np.less_equal(nz, s, out=inside)
        np.less_equal(nz, np.negative(s, out=self._neg), out=polar)
        np.logical_not(np.logical_or(inside, polar, out=boundary), out=boundary)
        # alpha only where a boundary row divides by a positive norm.
        np.divide(s, nz, out=alpha, where=boundary)
        np.add(alpha, 1.0, out=alpha, where=boundary)
        np.multiply(alpha, 0.5, out=alpha, where=boundary)
        t_out.fill(0.0)
        np.multiply(alpha, nz, out=t_out, where=boundary)
        np.copyto(t_out, s, where=inside)
        z_out.fill(0.0)
        np.multiply(alpha[:, None], tail, out=z_out, where=boundary[:, None])
        np.copyto(z_out, tail, where=inside[:, None])

    def rotated(self, out: np.ndarray) -> np.ndarray:
        """Project the rows of :attr:`x` onto the rotated cone into ``out``:
        any float dtype, any shape of ``m`` rows in order (such as the
        ``(K, m / K, d + 1)`` view of K stacked scenarios' cone blocks)."""
        x, d, r = self.x, self.tail[:, 0], self._result
        np.divide(np.add(x[:, 0], x[:, 1], out=self.s), SQRT2, out=self.s)
        np.divide(np.subtract(x[:, 0], x[:, 1], out=d), SQRT2, out=d)
        self.tail[:, 1:] = x[:, 2:]
        self.standard()
        s_p, d_p, u_p, v_p = self.t_out, self.z_out[:, 0], r[:, 0], r[:, 1]
        np.divide(np.add(s_p, d_p, out=u_p), SQRT2, out=u_p)
        np.divide(np.subtract(s_p, d_p, out=v_p), SQRT2, out=v_p)
        # Clamp the tiny negative fuzz the rotation can leave behind.
        np.maximum(r[:, :2], 0.0, out=r[:, :2])
        r[:, 2:] = self.z_out[:, 1:]
        np.copyto(out, r.reshape(out.shape))
        return out


def project_soc_batch(t: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized standard-cone projection; preserves the input dtype.

    Parameters
    ----------
    t:
        Shape ``(m,)``.
    z:
        Shape ``(m, d)``.
    """
    t, z = np.asarray(t), np.asarray(z)
    out_dtype = np.result_type(t, z)
    kernel = ConeKernel(*z.shape)
    kernel.s[...] = t
    kernel.tail[...] = z
    kernel.standard()
    return (
        kernel.t_out.astype(out_dtype, copy=False),
        kernel.z_out.astype(out_dtype, copy=False),
    )


def project_rotated_soc(u: float, v: float, w: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Project ``(u, v, w)`` onto ``{2 u v >= ||w||^2, u, v >= 0}``."""
    uu, vv, ww = project_rotated_soc_batch(
        np.array([u]), np.array([v]), np.asarray(w, dtype=HOST_DTYPE)[None, :]
    )
    return float(uu[0]), float(vv[0]), ww[0]


def project_rotated_soc_batch(
    u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized rotated-cone projection; ``u, v`` shape (m,), ``w`` (m, d).

    Exact because the (u, v) rotation is orthogonal and the tail passes
    through unchanged — the whole map to the standard cone is an isometry.
    The result comes back in the inputs' dtype (fp32 in, fp32 out).
    """
    u, v, w = np.asarray(u), np.asarray(v), np.asarray(w)
    m, d = w.shape
    kernel = ConeKernel(m, d + 1)
    kernel.x[:, 0], kernel.x[:, 1], kernel.x[:, 2:] = u, v, w
    out = kernel.rotated(np.empty((m, d + 2), dtype=np.result_type(u, v, w)))
    return out[:, 0], out[:, 1], out[:, 2:]


def in_rotated_soc(u: float, v: float, w: np.ndarray, tol: float = 1e-9) -> bool:
    """Membership test for ``{2 u v >= ||w||^2, u, v >= 0}`` (with tolerance)."""
    w = np.asarray(w, dtype=HOST_DTYPE)
    return u >= -tol and v >= -tol and 2.0 * u * v + tol >= float(w @ w)
