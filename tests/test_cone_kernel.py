"""The in-place cone kernel against frozen copies of the previous
closed-form projections.

:class:`repro.socp.cone.ConeKernel` is the body of
:func:`repro.socp.project_soc_batch`, :func:`repro.socp.
project_rotated_soc_batch` and the conic rung's local update.  On every
input the previous functions (frozen below) accept, its finite entries
must keep their bytes and its non-finite entries their positions:
random rows of any tail width, signed zeros, NaN and infinities, tiny
(1e-300) and huge (1e150) magnitudes, and rows within rounding of the
cone.  Its norm sums the squares in the order ``np.linalg.norm`` reduces
them on the NumPy that runs, so the fuzz is also the guard of that order.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.backend import default_backend
from repro.core import ADMMConfig
from repro.feeders import ieee13
from repro.methods import Method, build_method_problem, make_method_solver
from repro.serve import OPFRequest, TopologyPlan
from repro.socp import project_rotated_soc_batch, project_soc_batch
from repro.socp.cone import ConeKernel

SQRT2 = np.sqrt(2.0)


# ----------------------------------------------------------------------
# Frozen copies of the previous implementation (the references)
# ----------------------------------------------------------------------
def parent_project_soc_batch(t, z):
    t_in = np.asarray(t)
    z_in = np.asarray(z)
    out_dtype = np.result_type(t_in, z_in)
    t = t_in.astype(np.float64, copy=False)
    z = z_in.astype(np.float64, copy=False)
    nz = np.linalg.norm(z, axis=1)
    inside = nz <= t
    polar = nz <= -t
    boundary = ~inside & ~polar
    t_out = np.where(inside, t, 0.0)
    z_out = np.where(inside[:, None], z, 0.0)
    if boundary.any():
        alpha = 0.5 * (1.0 + t[boundary] / nz[boundary])
        t_out[boundary] = alpha * nz[boundary]
        z_out[boundary] = alpha[:, None] * z[boundary]
    return (
        t_out.astype(out_dtype, copy=False),
        z_out.astype(out_dtype, copy=False),
    )


def parent_project_rotated_soc_batch(u, v, w):
    u_in = np.asarray(u)
    v_in = np.asarray(v)
    w_in = np.asarray(w)
    out_dtype = np.result_type(u_in, v_in, w_in)
    u = u_in.astype(np.float64, copy=False)
    v = v_in.astype(np.float64, copy=False)
    w = w_in.astype(np.float64, copy=False)
    s = (u + v) / SQRT2
    d = (u - v) / SQRT2
    tail = np.concatenate([d[:, None], w], axis=1)
    s_p, tail_p = parent_project_soc_batch(s, tail)
    d_p = tail_p[:, 0]
    w_p = tail_p[:, 1:]
    u_p = (s_p + d_p) / SQRT2
    v_p = (s_p - d_p) / SQRT2
    u_p = np.maximum(u_p, 0.0)
    v_p = np.maximum(v_p, 0.0)
    return (
        u_p.astype(out_dtype, copy=False),
        v_p.astype(out_dtype, copy=False),
        w_p.astype(out_dtype, copy=False),
    )


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
ENTRY = st.one_of(
    st.floats(-10, 10),
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, -1e-300, 1e150, -1e150]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def rotated_rows(draw, widths=st.just(2)):
    """``(m, 2 + k)`` rows ``(u, v, w_1 .. w_k)``, ``k`` drawn from
    ``widths``: arbitrary entries, plus rows on the rotated cone up to a
    relative perturbation of about 1e-15."""
    m, k = draw(st.integers(1, 12)), draw(widths)
    rows = draw(arrays(np.float64, (m, 2 + k), elements=ENTRY))
    for i in draw(st.lists(st.integers(0, m - 1), max_size=m)):
        u, v = draw(st.floats(1e-6, 10)), draw(st.floats(1e-6, 10))
        direction = np.array([draw(st.floats(-1, 1)) for _ in range(k)])
        length = np.linalg.norm(direction)
        if length < 1e-3:
            continue
        radius = np.sqrt(2 * u * v) * (1 + draw(st.floats(-4e-15, 4e-15)))
        rows[i] = u, v, *(radius * direction / length)
    return rows


#: Rows the fuzz must always try, as ``(u, v, w_1 .. w_k)``.
ORIGIN = np.array([[-0.0, -0.0, -0.0, -0.0]])
#: ``||tail|| = inf <= -s``: polar, where a scale of 0 would make 0 * inf = NaN.
POLAR_INF_TAIL = np.array([[-np.inf, 1.0, np.inf, 2.0], [-3.0, 1.0, 0.5, -0.25]])
#: NaN in the tail only, beside an inside and a boundary row.
NAN_TAIL = np.array([[1.0, 2.0, np.nan, 0.5], [2.0, 3.0, 0.5, -1.0], [1.0, 1.0, 3.0, 4.0]])
#: One row.
ONE_ROW = np.array([[0.3, 0.2, 1.5]])


def assert_same(got, want):
    """Finite entries byte for byte, non-finite ones in the same places."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert got[finite].tobytes() == want[finite].tobytes()


class TestFuzz:
    # 400 examples per tail width: the solver's width 2 keeps its budget.
    @settings(max_examples=1200, deadline=None)
    @given(rotated_rows(st.integers(1, 3)), st.sampled_from([np.float64, np.float32]))
    @example(ORIGIN, np.float64)
    @example(POLAR_INF_TAIL, np.float64)
    @example(NAN_TAIL, np.float32)
    @example(ONE_ROW, np.float64)
    def test_rotated_batch(self, rows, dtype):
        with np.errstate(all="ignore"):
            rows = rows.astype(dtype)
            got = project_rotated_soc_batch(rows[:, 0], rows[:, 1], rows[:, 2:])
            want = parent_project_rotated_soc_batch(rows[:, 0], rows[:, 1], rows[:, 2:])
        for g, w in zip(got, want):
            assert_same(g, w)

    @settings(max_examples=200, deadline=None)
    @given(rotated_rows(), st.integers(1, 3))
    @example(ORIGIN, 3)
    @example(POLAR_INF_TAIL, 3)
    @example(NAN_TAIL, 2)
    @example(ONE_ROW, 2)
    def test_standard_batch(self, rows, d):
        with np.errstate(all="ignore"):
            got = project_soc_batch(rows[:, 0], rows[:, 1 : 1 + d])
            want = parent_project_soc_batch(rows[:, 0], rows[:, 1 : 1 + d])
        for g, w in zip(got, want):
            assert_same(g, w)

    def test_origin_is_inside(self):
        """At the origin a row is both inside and polar: inside wins, so a
        signed zero passes through."""
        t, z = np.array([-0.0, 0.0]), np.array([[-0.0, 0.0], [0.0, -0.0]])
        got, want = project_soc_batch(t, z), parent_project_soc_batch(t, z)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        assert np.signbit(got[0][0]) and np.signbit(got[1][0, 0])


class TestInPlace:
    def test_strided_stacked_output(self):
        """K scenarios' cone blocks are strided rows of the stacked z: the
        kernel writes them through the ``(K, cones, 4)`` view."""
        rng = np.random.default_rng(0)
        k_n, cones, width = 3, 5, 30
        kernel = ConeKernel(k_n * cones, 3)
        kernel.x[...] = rng.standard_normal((k_n * cones, 4))
        u, v, w = parent_project_rotated_soc_batch(
            kernel.x[:, 0], kernel.x[:, 1], kernel.x[:, 2:]
        )
        want = np.concatenate([u[:, None], v[:, None], w], axis=1)
        z = np.full((k_n, width), 7.0, dtype=np.float32)
        kernel.rotated(z[:, 10:].reshape(k_n, cones, 4))
        assert (z[:, :10] == 7.0).all()
        assert z[:, 10:].tobytes() == want.astype(np.float32).reshape(k_n, -1).tobytes()

    def test_any_output_shape(self):
        """The result reaches ``out`` in any shape of ``m`` rows in order,
        also one the rows cannot be viewed as (a flat vector)."""
        rng = np.random.default_rng(1)
        kernel = ConeKernel(6, 3)
        for shape in [(6, 4), (24,), (6, 4), (24,), (2, 3, 4)]:
            kernel.x[...] = rng.standard_normal((6, 4))
            u, v, w = parent_project_rotated_soc_batch(
                kernel.x[:, 0], kernel.x[:, 1], kernel.x[:, 2:]
            )
            want = np.concatenate([u[:, None], v[:, None], w], axis=1)
            got = kernel.rotated(np.empty(shape))
            assert got.tobytes() == want.tobytes()


class TestStackedScenarios:
    """K stacked socp scenarios share one cone kernel call per iteration,
    each scenario's cones a strided row block of it: no scenario may see
    another's values."""

    @pytest.mark.parametrize("backend", ["numpy64", "numpy32"])
    def test_stack_of_three_equals_three_stacks_of_one(self, backend):
        plan = TopologyPlan("ieee13", method="socp")
        scenarios = [
            plan.build_scenario(OPFRequest(request_id=f"s{k}", load_scale=scale))
            for k, scale in enumerate([0.97, 1.00, 1.03])
        ]
        config = ADMMConfig(eps_rel=1e-12, max_iter=300, raise_on_max_iter=False)

        def solve(group):
            return make_method_solver(plan.stacked(group), config, backend=backend).solve()

        stacked = solve(scenarios)
        assert stacked.iterations == 300
        for k, scenario in enumerate(scenarios):
            alone = solve([scenario])
            for name in ("x", "z", "lam"):
                part = np.split(np.asarray(getattr(stacked, name)), len(scenarios))[k]
                want = np.asarray(getattr(alone, name))
                assert part.dtype == want.dtype
                assert part.tobytes() == want.tobytes(), (k, name)


@pytest.mark.skipif(
    default_backend().name != "numpy64", reason="numpy64 pin: the spec-tier socp trajectory"
)
def test_ieee13_local_update_is_byte_identical():
    """The conic rung's cone blocks of ``z`` against the frozen
    projection of the same targets over 300 iterations."""
    problem = build_method_problem(ieee13(), Method.SOCP)
    solver = make_method_solver(problem, backend="numpy64")
    n_linear, rho = solver.n_linear, solver.config.rho
    lam_before = {}
    checked = []

    def check(iteration, x, z, lam, res):
        # Iteration k projects B x_k + lam_{k-1} / rho.
        lam_prev = lam_before.pop(iteration - 1, None)
        if lam_prev is not None:
            cone = (x[solver.gcols] + lam_prev / rho)[n_linear:].reshape(-1, 4)
            u, v, w = parent_project_rotated_soc_batch(cone[:, 0], cone[:, 1], cone[:, 2:])
            want = np.concatenate([u[:, None], v[:, None], w], axis=1)
            assert z[n_linear:].tobytes() == want.tobytes()
            checked.append(iteration)
        lam_before[iteration] = lam.copy()

    solver.solve(max_iter=300, callback=check)
    assert checked == list(range(2, 301))
