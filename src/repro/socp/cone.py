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
bit-identically.
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

    The buffers are laid out as structure of arrays: one contiguous row
    of ``m`` entries per coordinate, so every step of a call is one
    whole-row NumPy operation over views and constant operands bound
    here.

    :meth:`standard` projects each row ``(s, tail)`` of :attr:`s` and
    :attr:`tail` (``(m, d)``) onto the standard cone ``||tail|| <= s``,
    into :attr:`t_out` and :attr:`z_out`:

    * inside rows stay as they are;
    * polar rows (``||tail|| <= -s``) go to the origin;
    * every other row is scaled to the boundary by
      ``alpha = (1 + s / ||tail||) / 2``.

    The origin is both inside and polar, and inside wins, so a signed zero
    ``s`` passes through: only the polar rows that are not inside are
    zeroed.  The norm sums the squares row after row, the order in which
    ``np.linalg.norm(tail, axis=1)`` reduces a few columns, so every bit
    matches the textbook formula.

    :meth:`rotated` projects rows ``(u, v, w_1 .. w_{d-1})`` of :attr:`x`
    onto the rotated cone through the isometry ``(s, d) = ((u + v),
    (u - v)) / sqrt(2)``, and writes them into ``out``.  :attr:`x` is the
    input buffer callers fill; a call copies it into the coordinate rows
    once and copies the result out once.

    :attr:`s`, :attr:`tail`, :attr:`t_out` and :attr:`z_out` are views
    of the coordinate rows (``tail`` and ``z_out`` transposed).
    :meth:`standard` consumes its inputs: it overwrites :attr:`s` and
    :attr:`tail` (``s`` with ``||tail||`` on boundary rows, both with 0
    on polar rows), so they must be refilled before each call, as
    :meth:`rotated` does from :attr:`x`.
    """

    def __init__(self, m: int, d: int):
        self.x = np.zeros((m, d + 1))
        # Coordinate rows, all initialized finite: the input (u, v, w),
        # rotated in place into (s, d, w), so the tail (d, w) is rows
        # 1..d; and the output (t, d, w), rotated in place into (u, v, w).
        rows, result = np.zeros((d + 1, m)), np.zeros((d + 1, m))
        scale, sq = np.zeros((d + 1, m)), np.zeros((d, m))
        nz, tmp, abs_s, alpha = (np.zeros(m) for _ in range(4))
        inside, nb, boundary, polar = (np.zeros(m, bool) for _ in range(4))
        one, half = np.ones(m), np.full(m, 0.5)
        sqrt2, zero = np.full((2, m), SQRT2), np.zeros((2, m))
        s, tail = rows[0], rows[1:]
        self.s, self.tail = s, tail.T
        self.t_out, self.z_out = result[0], result[1:].T
        add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
        sqrt, absolute, less_equal, maximum = np.sqrt, np.absolute, np.less_equal, np.maximum
        logical_not, logical_xor, copyto = np.logical_not, np.logical_xor, np.copyto
        sq0, sq_rest = sq[0], tuple(sq[1:])
        u, v, uv = rows[0], rows[1], rows[:2]
        u_out, v_out, uv_out = result[0], result[1], result[:2]
        x_rows, out_rows = self.x.T, result.T

        def standard():
            """Project ``(s, tail)`` into ``(t_out, z_out)``, overwriting
            ``s`` and ``tail``."""
            multiply(tail, tail, out=sq)
            total = sq0
            for row in sq_rest:
                total = add(total, row, out=nz)
            sqrt(total, out=nz)
            less_equal(nz, s, out=inside)
            less_equal(nz, absolute(s, out=abs_s), out=nb)
            logical_not(nb, out=boundary)
            # Polar and not inside: the origin stays inside.
            logical_xor(nb, inside, out=polar)
            # alpha = (1 + s / nz) / 2 on boundary rows, where nz > |s| >= 0,
            # and 1 elsewhere.
            alpha[...] = one
            divide(s, nz, out=alpha, where=boundary)
            multiply(add(alpha, one, out=alpha), half, out=alpha)
            # t = alpha * (s inside, nz on the boundary); tail = alpha * tail;
            # both 0 on polar rows.
            copyto(s, nz, where=boundary)
            copyto(rows, 0.0, where=polar)
            scale[...] = alpha
            multiply(rows, scale, out=result)

        def rotated(out: np.ndarray) -> np.ndarray:
            """Project the rows of :attr:`x` onto the rotated cone into ``out``:
            any float dtype, any shape of ``m`` rows in order (such as the
            ``(K, m / K, d + 1)`` view of K stacked scenarios' cone blocks)."""
            rows[...] = x_rows
            # (s, d) = (u + v, u - v) / sqrt(2), in place.
            add(u, v, out=tmp)
            subtract(u, v, out=v)
            u[...] = tmp
            divide(uv, sqrt2, out=uv)
            standard()
            # (u, v) = (t + d, t - d) / sqrt(2), in place.
            add(u_out, v_out, out=tmp)
            subtract(u_out, v_out, out=v_out)
            u_out[...] = tmp
            divide(uv_out, sqrt2, out=uv_out)
            # Clamp the tiny negative fuzz the rotation can leave behind.
            maximum(uv_out, zero, out=uv_out)
            out[...] = out_rows.reshape(out.shape)
            return out

        self.standard, self.rotated = standard, rotated


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
        np.ascontiguousarray(kernel.z_out, dtype=out_dtype),
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
