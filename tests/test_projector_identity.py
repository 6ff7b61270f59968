"""The batched box-QP projector and the scalar routine against frozen
copies of their previous implementations.

:class:`repro.qp.BoxAffineProjector` takes its first Newton pass over
every width bucket at once and its later passes one row at a time, and
:func:`repro.qp.project_box_affine` spells its clips and norms without
NumPy's wrappers.  Both must keep every bit of the code they replaced,
whose frozen copies below are the references: ``parent_project_box_affine``
(with its Newton loop) and ``ParentBoxAffineProjector`` (one stacked
Newton per bucket).  Checked:

* projector bytes and its ``rebuilds``/``fallbacks`` counters after every
  call of a spec-tier ieee13 qp solve, under either backend, with every
  branch of the per-row later passes taken;
* the same on Hypothesis batches of mixed components (a component with no
  equality rows, feasible at ``nu = 0``, in every batch), non-finite
  targets, a stack of scenarios and a component that spends the Newton
  budget;
* scalar-routine bytes, its interior-point fallback and its
  row-equilibrated retry included.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.backend import default_backend
from repro.feeders import ieee13
from repro.methods import Method, build_method_problem, make_method_solver
from repro.qp import BoxAffineProjector, project_box_affine
from repro.qp.interior_point import solve_qp_box_eq
from repro.utils.exceptions import QPSolverError
from tests.test_projection import (
    _EASY,
    BADLY_SCALED_ROWS,
    feasible_projection,
    projection_batch,
)

# ----------------------------------------------------------------------
# Frozen copies of the previous implementation (the references)
# ----------------------------------------------------------------------
TOL = 1e-10
MAX_ITER = 100
REG = 1e-12
ACCEPT = 1 - 1e-4


def bucket_width(n: int, minimum: int = 4) -> int:
    w = minimum
    while w < n:
        w <<= 1
    return w


def parent_project_box_affine(
    v: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    tol: float = TOL,
    max_iter: int = MAX_ITER,
) -> np.ndarray:
    """Project ``v`` onto ``{x : A x = b, lb <= x <= ub}``."""
    out_dtype = np.asarray(v).dtype
    if out_dtype.kind != "f":
        out_dtype = np.dtype(np.float64)
    v = np.asarray(v, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    m, n = a.shape if a.ndim == 2 else (0, v.shape[0])
    if m == 0:
        return np.clip(v, lb, ub).astype(out_dtype, copy=False)

    x = _parent_project(v, a, b, lb, ub, tol, max_iter)
    if x is None:
        # Row reduction can leave rows ~1e7 apart in scale, which stalls
        # both paths on a feasible problem; each row divided by its
        # largest |a| describes the same set.
        row_max = np.abs(a).max(axis=1)
        row_max[row_max == 0.0] = 1.0
        x = _parent_project(v, a / row_max[:, None], b / row_max, lb, ub, tol, max_iter)
    if x is None:
        raise QPSolverError("projection failed in both Newton and interior-point paths")
    return x.astype(out_dtype, copy=False)


def _parent_project(v, a, b, lb, ub, tol, max_iter) -> np.ndarray | None:
    """Semismooth Newton, then the interior-point QP; ``None`` if both fail."""
    m, n = a.shape
    nu = np.zeros(m)
    x = np.clip(v - a.T @ nu, lb, ub)
    phi = a @ x - b
    norm = np.linalg.norm(phi)
    scale = max(1.0, float(np.linalg.norm(b)))

    for _ in range(max_iter):
        if norm <= tol * scale:
            return x
        inner = v - a.T @ nu
        active_free = (inner > lb) & (inner < ub)
        ad = a[:, active_free]
        jac0 = ad @ ad.T
        trace = max(np.trace(jac0) / max(m, 1), 1.0)
        # Levenberg-Marquardt: the generalized Jacobian is rank deficient
        # whenever more bounds are active than equality rows allow, so
        # escalate the regularization until a descent step is found.
        improved = False
        reg = REG
        while reg <= 1e3 and not improved:
            jac = jac0 + reg * trace * np.eye(m)
            try:
                step = np.linalg.solve(jac, phi)
            except np.linalg.LinAlgError:
                reg *= 100.0
                continue
            t = 1.0
            for _ in range(30):
                nu_new = nu + t * step
                x_new = np.clip(v - a.T @ nu_new, lb, ub)
                phi_new = a @ x_new - b
                norm_new = np.linalg.norm(phi_new)
                if norm_new < norm * (1 - 1e-4 * t) or norm_new <= tol * scale:
                    nu, x, phi, norm = nu_new, x_new, phi_new, norm_new
                    improved = True
                    break
                t *= 0.5
            reg *= 100.0
        if not improved:
            break

    if norm <= 1e-8 * scale:
        return x
    # Fallback: the problem as an explicit QP (Q = I, d = -v).
    result = solve_qp_box_eq(
        np.eye(n), -v, a, b, np.asarray(lb, dtype=float), np.asarray(ub, dtype=float)
    )
    return result.x if result.converged else None



def _matvec(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``(S, p, q) @ (S, q) -> (S, p)``, one product per component."""
    return np.matmul(mats, vecs[:, :, None])[:, :, 0]


def _row_norms(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(np.add.reduce(rows * rows, axis=1))


def _lanes(counts: np.ndarray) -> np.ndarray:
    """``0, 1, ..., c - 1`` for each count ``c``, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


class _ParentBucket:
    """The components of one padding width ``w``."""

    def __init__(self, comps, m, a, b, lb, ub, slots):
        self.width = a.shape[-1]
        self.comps = comps
        self.m = m
        self.slice = slots
        self.a, self.b, self.lb, self.ub = a, b, lb, ub
        self.tol_scale = TOL * np.maximum(1.0, _row_norms(self.b))
        # One cache slot per component: its last free mask and the
        # inverse of that mask's regularized Jacobian.
        self.mask = np.zeros(b.shape, dtype=bool)
        self.inv = np.empty(a.shape)
        self.cached = np.zeros(comps.size, dtype=bool)
        self.rebuilds = 0

    def inverses(self, idx, rows, mask):
        """The Jacobian inverses of rows ``idx`` at free mask ``mask``."""
        hit = np.logical_and.reduce(mask == self.mask[rows], axis=1)
        hit &= self.cached[rows]
        if not hit.all():
            miss = np.flatnonzero(~hit)
            built = idx[miss]
            ad = self.a[built] * mask[miss][:, None, :]
            jac = ad @ ad.transpose(0, 2, 1)
            m = self.m[built]
            trace = np.maximum(np.trace(jac, axis1=1, axis2=2) / np.maximum(m, 1), 1.0)
            jac.reshape(built.size, -1)[:, :: self.width + 1] += np.where(
                np.arange(self.width) < m[:, None], (REG * trace)[:, None], 1.0
            )
            self.inv[built] = np.linalg.inv(jac)
            self.mask[built] = mask[miss]
            self.cached[built] = True
            self.rebuilds += built.size
        return self.inv[rows]

    def newton(self, v, x, skip):
        """Project the bucket's targets ``v`` (``(S, w)``) into ``x``."""
        np.minimum(np.maximum(v, self.lb, out=x), self.ub, out=x)
        phi = _matvec(self.a, x) - self.b
        norm = _row_norms(phi)
        todo = norm > self.tol_scale
        if skip is not None:
            x[skip] = np.nan
            todo &= ~skip
        idx = np.flatnonzero(todo)
        size = self.comps.size
        if idx.size < size:
            phi, norm = phi[idx], norm[idx]
        nu = None
        rejected = []
        for _ in range(MAX_ITER):
            if not idx.size:
                break
            # A pass over the whole bucket works on views, later passes on
            # copies of their rows.
            rows = slice(None) if idx.size == size else idx
            a, v_i, lb, ub, b, ts = (
                arr[rows] for arr in (self.a, v, self.lb, self.ub, self.b, self.tol_scale)
            )
            at = a.transpose(0, 2, 1)
            # nu = 0 on the first pass, where v - A^T nu is v itself.
            inner = v_i if nu is None else v_i - _matvec(at, nu)
            inv = self.inverses(idx, rows, (inner > lb) & (inner < ub))
            step = _matvec(inv, phi)
            nu = step if nu is None else nu + step
            x_new = np.minimum(np.maximum(v_i - _matvec(at, nu), lb), ub)
            phi_new = _matvec(a, x_new) - b
            norm_new = _row_norms(phi_new)
            done = norm_new <= ts
            if done.all():
                # The common case: every row converged in this pass.
                x[rows] = x_new
                break
            ok = done | (norm_new < norm * ACCEPT)
            finished = ok & done
            x[idx[finished]] = x_new[finished]
            rejected.append(idx[~ok])
            keep = ok & ~done
            idx, nu, phi, norm = idx[keep], nu[keep], phi_new[keep], norm_new[keep]
        else:
            rejected.append(idx)
        return rejected


class ParentBoxAffineProjector:
    """:func:`parent_project_box_affine` for every component of a stacked vector."""

    def __init__(self, systems, lb: np.ndarray, ub: np.ndarray):
        self.systems = systems = list(systems)
        self.lb, self.ub = lb, ub
        m, n = np.array([a.shape for a, _ in systems], dtype=np.int64).T
        self.offsets = np.concatenate([[0], np.cumsum(n)])
        self.n = int(self.offsets[-1])
        # Components in bucket order, each padded to its width w: a w-slot
        # run of the padded vector layout and a (w, w) block of the padded
        # matrix layout, every bucket's runs and blocks laid end to end.
        widths = np.array([bucket_width(k) for k in n.tolist()], dtype=np.int64)
        order = np.argsort(widths, kind="stable")
        w, m, n = widths[order], m[order], n[order]
        first = np.cumsum(w) - w
        block = np.cumsum(w * w) - w * w
        n_pad = int(first[-1] + w[-1])
        lane = _lanes(n)
        pad = np.repeat(first, n) + lane
        stacked = np.repeat(self.offsets[order], n) + lane
        # Each padded slot reads its stacked entry, or the trailing zero of
        # the input buffer; each stacked entry comes back from its slot.
        self._pad_from_stack = np.full(n_pad, self.n, dtype=np.int64)
        self._pad_from_stack[pad] = stacked
        self._stack_from_pad = np.empty(self.n, dtype=np.int64)
        self._stack_from_pad[stacked] = pad
        self._v_stack = np.zeros(self.n + 1)
        self._v_stack[: self.n] = lb
        lb_pad = self._v_stack.take(self._pad_from_stack)
        self._v_stack[: self.n] = ub
        ub_pad = self._v_stack.take(self._pad_from_stack)
        b_pad = np.zeros(n_pad)
        ordered = [systems[s] for s in order.tolist()]
        b_pad[np.repeat(first, m) + _lanes(m)] = np.concatenate([b for _, b in ordered])
        # Row i of component s's A starts at i * w of its block.
        a_pad = np.zeros(int(block[-1] + w[-1] ** 2))
        row_len = np.repeat(n, m)
        row_start = np.repeat(block, m) + _lanes(m) * np.repeat(w, m)
        a_pad[np.repeat(row_start, row_len) + _lanes(row_len)] = np.concatenate(
            [a.ravel() for a, _ in ordered]
        )
        self.buckets = []
        bounds = np.flatnonzero(np.diff(w)) + 1
        for lo, hi in zip([0, *bounds.tolist()], [*bounds.tolist(), order.size]):
            k, width = hi - lo, int(w[lo])
            vec = slice(int(first[lo]), int(first[lo]) + k * width)
            mat = slice(int(block[lo]), int(block[lo]) + k * width * width)
            self.buckets.append(_ParentBucket(
                order[lo:hi], m[lo:hi], a_pad[mat].reshape(k, width, width),
                b_pad[vec].reshape(k, width), lb_pad[vec].reshape(k, width),
                ub_pad[vec].reshape(k, width), vec,
            ))
        self._x_pad = np.empty(n_pad)
        self.fallbacks = 0

    @property
    def rebuilds(self) -> int:
        return sum(bk.rebuilds for bk in self.buckets)

    def project(self, v: np.ndarray) -> np.ndarray:
        """Every component's projection of the stacked fp64 vector ``v``."""
        self._v_stack[: self.n] = v
        v_pad = self._v_stack.take(self._pad_from_stack)
        x_pad = self._x_pad
        finite = bool(np.isfinite(v_pad).all())
        fallback = []
        for bk in self.buckets:
            shape = (bk.comps.size, bk.width)
            vb = v_pad[bk.slice].reshape(shape)
            skip = None if finite else ~np.isfinite(vb).all(axis=1)
            for rows in bk.newton(vb, x_pad[bk.slice].reshape(shape), skip):
                fallback.extend(bk.comps[rows].tolist())
        z = x_pad.take(self._stack_from_pad)
        self.fallbacks += len(fallback)
        for s in fallback:
            sl = slice(int(self.offsets[s]), int(self.offsets[s + 1]))
            a, b = self.systems[s]
            z[sl] = parent_project_box_affine(self._v_stack[sl], a, b, self.lb[sl], self.ub[sl])
        return z


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _pair(qps):
    """The projector and its frozen reference over ``(a, b, lb, ub)``."""
    qps = list(qps)
    systems = [(a, b) for a, b, _, _ in qps]
    lb = np.concatenate([lb for _, _, lb, _ in qps])
    ub = np.concatenate([ub for _, _, _, ub in qps])
    return BoxAffineProjector(systems, lb, ub), ParentBoxAffineProjector(systems, lb, ub)


def assert_same_call(new, ref, v):
    """One call of each on ``v``: the same bytes and counters."""
    got, want = new.project(v.copy()), ref.project(v.copy())
    assert got.tobytes() == want.tobytes()
    assert (new.rebuilds, new.fallbacks) == (ref.rebuilds, ref.fallbacks)


def spy_later_passes(projector) -> list:
    """Record each row the projector's per-row routine takes, as
    ``(bucket width, signed pass count, Jacobians rebuilt)``."""
    rows = []
    for bk in projector.buckets:

        def row(i, norm, bk=bk, newton=bk.newton):
            before = projector.rebuilds
            passes = newton(i, norm)
            rows.append((bk.width, passes, projector.rebuilds - before))
            return passes

        bk.newton = row
    return rows


#: Per backend: the solve's (rebuilds, fallbacks), then the later passes'
#: branches: first steps rejected, later steps rejected, rows entering a
#: later pass, rows needing a third pass and the calls they fall in, calls
#: with rows in two buckets, and Jacobians rebuilt inside later passes.
IEEE13_TRAFFIC = {
    "numpy64": ((732, 109), (103, 6, 6110, 114, 81, 359, 398)),
    "numpy32": ((730, 109), (104, 5, 6109, 114, 81, 359, 397)),
}


def test_ieee13_trajectory_is_byte_identical_call_by_call():
    problem = build_method_problem(ieee13(), Method.QP)
    solver = make_method_solver(problem)
    projector = solver.projector
    ref = ParentBoxAffineProjector(projector.systems, projector.lb, projector.ub)
    project, later_passes = projector.project, projector._later_passes
    rows = spy_later_passes(projector)
    calls, undone, per_call = [], [], []

    def checked(v, out=None):
        target = np.array(v, copy=True)
        first = len(rows)
        z = project(v, out=out)
        # The reference answers in fp64; the loop keeps its own dtype.
        assert z.tobytes() == ref.project(target).astype(z.dtype).tobytes()
        assert (projector.rebuilds, projector.fallbacks) == (ref.rebuilds, ref.fallbacks)
        calls.append(z is out)
        per_call.append(rows[first:])
        return z

    def counted(done):
        undone.append(int(np.count_nonzero(~done)))
        return later_passes(done)

    projector.project, projector._later_passes = checked, counted
    result = solver.solve()
    assert result.converged and result.iterations == len(calls) == 5430
    assert all(calls)  # every projection went straight into the loop's z
    counters, branches = IEEE13_TRAFFIC[default_backend().name]
    assert (projector.rebuilds, projector.fallbacks) == counters
    third = [sum(abs(passes) >= 3 for _, passes, _ in call) for call in per_call]
    assert (
        sum(undone) - len(rows),
        sum(passes < 0 for _, passes, _ in rows),
        len(rows),
        sum(third),
        sum(map(bool, third)),
        sum(len({width for width, _, _ in call}) == 2 for call in per_call),
        sum(built for _, _, built in rows),
    ) == branches
    assert branches[0] + branches[1] == projector.fallbacks
    # No row spends the budget here (TestBatches.test_budget_spent does).
    assert max(abs(passes) for _, passes, _ in rows) == 3


class TestBatches:
    @settings(max_examples=40, deadline=None)
    @given(projection_batch())
    def test_batch_then_other_targets(self, batch):
        """Two calls (the second reuses or misses the cache) on a mixed
        batch, then the batch stacked three times."""
        problems, others = batch
        new, ref = _pair(p[1:] for p in problems)
        for targets in ([p[0] for p in problems], others):
            assert_same_call(new, ref, np.concatenate(targets))
        new, ref = _pair(p[1:] for p in problems * 3)
        assert_same_call(new, ref, np.concatenate(others + [p[0] for p in problems] + others))

    @settings(max_examples=20, deadline=None)
    @given(projection_batch())
    def test_non_finite_targets(self, batch):
        problems, others = batch
        new, ref = _pair(p[1:] for p in problems)
        v = np.concatenate(others)
        for k, bad in enumerate((np.nan, np.inf, -np.inf)):
            v[(7 * k) % v.size] = bad
            with np.errstate(invalid="ignore"):
                assert_same_call(new, ref, v)

    def test_rejected_steps_and_the_input_buffer(self):
        """The scalar routine's components, a target built in the input
        buffer and an fp32 output."""
        corner = (
            np.array([5.0, -5.0]), np.array([[1.0, 1.0]]), np.array([2.0]),
            np.zeros(2), np.full(2, 1.5),
        )
        problems = [_EASY, corner, BADLY_SCALED_ROWS, _EASY]
        new, ref = _pair(p[1:] for p in problems)
        v = np.concatenate([p[0] for p in problems])
        new.v[...] = v
        out = np.empty(v.size, dtype=np.float32)
        assert new.project(new.v, out=out) is out
        want = ref.project(v)
        assert out.tobytes() == want.astype(np.float32).tobytes()
        assert (new.rebuilds, new.fallbacks) == (ref.rebuilds, ref.fallbacks)
        assert new.fallbacks >= 2

    def test_budget_spent(self):
        """One-row components whose Jacobian diagonal (1e-14) sits far below
        the regularization's floor of 1, so every full step is accepted but
        removes only 1/101 of the residual: from 2.69e-10 the first row
        converges at the last pass the budget allows, from 2.72e-10 the
        second would need one more, and the scalar routine finishes it."""

        def slow(offset):
            return (
                np.array([10.0 + offset]), np.array([[1e-7]]), np.array([1e-6]),
                np.zeros(1), np.full(1, 100.0),
            )

        problems = [slow(2.69e-3), slow(2.72e-3), _EASY]
        new, ref = _pair(p[1:] for p in problems)
        rows = spy_later_passes(new)
        assert_same_call(new, ref, np.concatenate([p[0] for p in problems]))
        assert [passes for _, passes, _ in rows] == [MAX_ITER, -MAX_ITER]
        assert new.fallbacks == 1


class TestScalarRoutine:
    @settings(max_examples=60, deadline=None)
    @given(feasible_projection())
    @example(BADLY_SCALED_ROWS)
    def test_bytes(self, prob):
        assert project_box_affine(*prob).tobytes() == parent_project_box_affine(*prob).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(feasible_projection())
    def test_interior_point_fallback_bytes(self, prob):
        """No Newton iteration: every answer is the interior-point QP's."""
        for kw in ({"max_iter": 0}, {"max_iter": 1, "tol": 1e-300}):
            try:
                want = parent_project_box_affine(*prob, **kw)
            except QPSolverError:
                with pytest.raises(QPSolverError):
                    project_box_affine(*prob, **kw)
                continue
            assert project_box_affine(*prob, **kw).tobytes() == want.tobytes()

    def test_fp32_target_and_no_rows(self):
        v, a, b, lb, ub = BADLY_SCALED_ROWS
        v32 = (v + 0.3).astype(np.float32)
        got = project_box_affine(v32, a, b, lb, ub)
        assert got.dtype == np.float32
        assert got.tobytes() == parent_project_box_affine(v32, a, b, lb, ub).tobytes()
        signed = np.array([-0.0, 0.0, np.nan, 3.0])
        bounds = np.array([0.0, -0.0, 0.0, -1.0]), np.array([1.0, 0.0, 1.0, 2.0])
        assert (
            project_box_affine(signed, np.zeros((0, 4)), np.zeros(0), *bounds).tobytes()
            == parent_project_box_affine(signed, np.zeros((0, 4)), np.zeros(0), *bounds).tobytes()
        )
