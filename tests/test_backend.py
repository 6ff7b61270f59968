"""repro.backend: registry, precision policies, fp32/fp64 equivalence and
the mixed-precision refinement fallback."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.backend import (
    BACKEND_ENV_VAR,
    Backend,
    CupyBackend,
    NumpyBackend,
    available_backends,
    backend_names,
    default_backend,
    get_backend,
    policy_for,
    refinement_backend,
    resolve_backend,
)
from repro.core.config import ADMMConfig
from repro.core.solver_free import SolverFreeADMM
from repro.decomposition import decompose
from repro.feeders import SyntheticFeederSpec, build_synthetic_feeder, ieee13
from repro.formulation import build_centralized_lp
from repro.serve.engine import scenario_norms


@pytest.fixture(scope="module")
def dec13():
    return decompose(build_centralized_lp(ieee13()))


@pytest.fixture(scope="module")
def dec_synth():
    net = build_synthetic_feeder(SyntheticFeederSpec(n_buses=40, seed=7))
    return decompose(build_centralized_lp(net))


class TestRegistry:
    def test_names(self):
        assert set(backend_names()) == {"numpy64", "numpy32", "cupy"}

    def test_numpy_backends_always_available(self):
        assert "numpy64" in available_backends()
        assert "numpy32" in available_backends()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("tpu")

    def test_cupy_detected_or_skips_cleanly(self):
        """On CUDA machines the cupy backend resolves; everywhere else the
        registry reports it unavailable with a clean error (never an
        ImportError at module import time)."""
        if "cupy" in available_backends():  # pragma: no cover - hardware
            assert get_backend("cupy").device
        else:
            with pytest.raises(ValueError, match="not available"):
                get_backend("cupy")

    def test_instances_cached(self):
        assert get_backend("numpy64") is get_backend("numpy64")

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy32")
        assert default_backend().name == "numpy32"
        assert resolve_backend(None).name == "numpy32"
        monkeypatch.delenv(BACKEND_ENV_VAR)
        assert default_backend().name == "numpy64"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy32")
        assert resolve_backend("numpy64").name == "numpy64"
        instance = get_backend("numpy64")
        assert resolve_backend(instance) is instance

    def test_precision_overlay(self):
        b = resolve_backend("numpy64", precision="fp32")
        assert isinstance(b, NumpyBackend)
        assert b.compute_dtype == np.float32
        assert not b.policy.refine
        # Overlay matching the existing policy returns the same instance.
        assert resolve_backend("numpy64", precision="fp64") is get_backend("numpy64")

    def test_policy_lookup(self):
        assert policy_for("mixed").refine
        with pytest.raises(ValueError, match="unknown precision"):
            policy_for("fp16")

    def test_refinement_backend_is_fp64(self):
        assert refinement_backend(get_backend("numpy32")).compute_dtype == np.float64

    def test_capabilities(self):
        caps = get_backend("numpy32").capabilities()
        assert caps["compute_dtype"] == "float32"
        assert caps["accumulate_dtype"] == "float64"
        assert caps["refinement"] is True
        assert caps["itemsize"] == 4


class TestPrimitives:
    def test_scatter_add_accumulates_fp64(self):
        b = get_backend("numpy32")
        idx = b.index_array([0, 0, 1])
        out = b.scatter_add(idx, b.asarray([1.0, 2.0, 3.0]), 3)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, [3.0, 3.0, 0.0])

    def test_matmul_batched_matches_loop(self):
        b = get_backend("numpy64")
        rng = np.random.default_rng(0)
        proj = rng.standard_normal((3, 4, 4))
        v = rng.standard_normal((3, 4))
        out = b.matmul_batched(b.asarray(proj), b.asarray(v.ravel()))
        np.testing.assert_allclose(out.reshape(3, 4), np.einsum("sij,sj->si", proj, v))

    def test_norm_and_dot_accumulate_fp64(self):
        b = get_backend("numpy32")
        v = b.asarray(np.ones(10))
        assert isinstance(b.norm(v), float)
        assert b.dot(v, v) == pytest.approx(10.0)

    def test_to_numpy_is_fp64(self):
        b = get_backend("numpy32")
        out = b.to_numpy(b.zeros(4))
        assert out.dtype == np.float64


#: Backend whose compute dtype is each float dtype (both accumulate in fp64).
_BACKEND_FOR = {np.dtype(np.float64): "numpy64", np.dtype(np.float32): "numpy32"}
_DTYPES = st.sampled_from([np.float64, np.float32])
_SPECIAL = [0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 5e-324, -5e-324]


def _floats(dtype, nan=False, inf=True):
    """Any float of ``dtype``, signed zeros, unit values, infinities (when
    ``inf``) and subnormals included."""
    dtype = np.dtype(dtype)
    width = dtype.itemsize * 8
    tiny = float(np.finfo(dtype).smallest_normal)
    special = [dtype.type(v) for v in _SPECIAL if inf or np.isfinite(v)]
    return (
        st.floats(width=width, allow_nan=nan, allow_infinity=inf)
        | st.floats(-tiny, tiny, width=width)
        | st.sampled_from(special)
    )


def _bits(a):
    a = np.asarray(a)
    return a.view(np.uint64 if a.dtype == np.float64 else np.uint32)


@st.composite
def _clip_cases(draw):
    """``(x, lo, hi)`` of one dtype; NaN only in ``x``, sometimes ``lo == hi``."""
    dtype = draw(_DTYPES)
    n = draw(st.integers(0, 70))
    x = draw(arrays(dtype, n, elements=_floats(dtype, nan=True)))
    lo = draw(arrays(dtype, n, elements=_floats(dtype)))
    hi = lo.copy() if draw(st.booleans()) else draw(arrays(dtype, n, elements=_floats(dtype)))
    return x, lo, hi


@st.composite
def _vectors(draw):
    """A vector of either dtype, sometimes a strided view."""
    dtype = draw(_DTYPES)
    stride = draw(st.integers(1, 3))
    n = draw(st.integers(0, 600))
    return draw(arrays(dtype, n * stride, elements=_floats(dtype)))[::stride]


class TestPrimitiveEquivalence:
    """The backend's wrapper-free spellings give NumPy's bits exactly."""

    @settings(max_examples=200, deadline=None)
    @given(_clip_cases())
    @example((
        np.array([-0.0, 0.0, -0.0, 0.0, np.nan]),
        np.array([0.0, -0.0, -0.0, 0.0, 0.0]),
        np.array([0.0, -0.0, 1.0, 1.0, 0.0]),
    ))
    def test_clip_matches_np_clip(self, case):
        x, lo, hi = case
        got = get_backend(_BACKEND_FOR[x.dtype]).clip(x, lo, hi)
        want = np.clip(x, lo, hi)
        assert got.dtype == want.dtype
        assert np.array_equal(_bits(got), _bits(want))
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @settings(max_examples=200, deadline=None)
    @given(_vectors())
    @example(np.zeros(0))
    @example(np.full(7, 5e-324))
    def test_norm_matches_linalg_norm(self, v):
        with np.errstate(over="ignore"):
            got = get_backend(_BACKEND_FOR[v.dtype]).norm(v)
            want = np.linalg.norm(np.asarray(v, dtype=np.float64))
        assert isinstance(got, float)
        assert _bits(got) == _bits(want)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), dtype=_DTYPES, k_n=st.integers(1, 5), n=st.integers(1, 300))
    def test_scenario_norms_match_rowwise_linalg_norm(self, data, dtype, k_n, n):
        vec = arrays(dtype, k_n * n, elements=_floats(dtype, inf=False))
        bx, z, z_prev, lam = (data.draw(vec) for _ in range(4))
        rows = np.empty((5, k_n * n))
        with np.errstate(over="ignore", invalid="ignore"):
            got = scenario_norms(np, rows, k_n, bx, z, z_prev, lam)
            for row, v in zip(got, (bx - z, z - z_prev, bx, z, lam)):
                want = np.linalg.norm(v.reshape(k_n, -1).astype(np.float64), axis=1)
                assert np.array_equal(_bits(row), _bits(want))


class TestEquivalence:
    """fp32 and fp64 solve the same problems to the same answers."""

    def test_ieee13_objective_agrees(self, dec13):
        r64 = SolverFreeADMM(dec13, backend="numpy64").solve()
        r32 = SolverFreeADMM(dec13, backend="numpy32").solve()
        assert r64.converged and r32.converged
        rel = abs(r32.objective - r64.objective) / abs(r64.objective)
        assert rel < 1e-4

    def test_synthetic_feeder_objective_agrees(self, dec_synth):
        r64 = SolverFreeADMM(dec_synth, backend="numpy64").solve()
        r32 = SolverFreeADMM(dec_synth, backend="numpy32").solve()
        assert r64.converged and r32.converged
        rel = abs(r32.objective - r64.objective) / abs(max(r64.objective, 1e-12))
        assert rel < 1e-4

    def test_pure_fp32_converges_without_refinement(self, dec13):
        result = SolverFreeADMM(dec13, backend="numpy32", precision="fp32").solve()
        assert result.converged
        assert "refinement" not in result.algorithm

    def test_default_backend_result_dtype_is_fp64(self, dec13):
        """Results always come back as host fp64 regardless of backend."""
        result = SolverFreeADMM(dec13, backend="numpy32").solve()
        assert result.x.dtype == np.float64
        assert result.z.dtype == np.float64


class TestRefinementFallback:
    def test_triggers_on_tolerance_beyond_fp32(self, dec13):
        """eps_rel = 1e-6 sits below the fp32 round-off floor of this
        problem — the deliberately ill-conditioned case: fp32 stalls above
        tolerance and the fp64 continuation finishes the solve."""
        cfg = ADMMConfig(eps_rel=1e-6, max_iter=60_000)
        result = SolverFreeADMM(dec13, cfg, backend="numpy32").solve()
        assert result.converged
        assert "refinement" in result.algorithm
        # The merged result keeps one continuous history.
        assert len(result.history.pres) == result.iterations

    def test_not_triggered_at_paper_tolerance(self, dec13):
        result = SolverFreeADMM(dec13, backend="numpy32").solve()
        assert result.converged
        assert "refinement" not in result.algorithm

    def test_matches_fp64_solution(self, dec13):
        cfg = ADMMConfig(eps_rel=1e-6, max_iter=60_000)
        r32 = SolverFreeADMM(dec13, cfg, backend="numpy32").solve()
        r64 = SolverFreeADMM(dec13, cfg, backend="numpy64").solve()
        rel = abs(r32.objective - r64.objective) / abs(r64.objective)
        assert rel < 1e-6


class TestBitIdentity:
    """numpy64 is the historical implementation, not merely close to it."""

    def test_numpy64_trajectory_is_deterministic(self, dec13):
        a = SolverFreeADMM(dec13, backend="numpy64").solve()
        b = SolverFreeADMM(dec13, backend="numpy64").solve()
        assert np.array_equal(a.x, b.x)
        assert a.history.pres == b.history.pres

    def test_numpy64_asarray_never_copies_fp64(self):
        b = get_backend("numpy64")
        v = np.zeros(5)
        assert b.asarray(v) is v
