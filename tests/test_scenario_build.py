"""The parametric scenario build of linearized/qp serving plans.

``TopologyPlan.build_scenario`` writes a request's load rows and generator
bounds into copies of the plan's base LP and re-reduces only the touched
components.  These tests hold it, byte for byte, to the full rebuild it
replaced (:class:`RebuildPlan`: perturbed deep copy of the network,
``build_centralized_lp``, ``rows_to_dense_local`` of every component), and
hold the faster row reduction and projection to frozen copies of the
implementations they replaced.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.backend.policy import HOST_DTYPE
from repro.core.batch import projection_data
from repro.decomposition.rowreduce import reduced_row_echelon
from repro.formulation import build_centralized_lp
from repro.formulation.rows import rows_to_dense_local
from repro.io.resolve import resolve_feeder
from repro.serve import OPFRequest, ScenarioEngine, SolveOptions, TopologyPlan
from repro.utils.exceptions import DecompositionError, InfeasibleError

FEEDERS = ("ieee13", "ieee13-der", "synthetic:20:4")
LP_METHODS = ("linearized", "qp")


# -- frozen reference implementations ------------------------------------------
def reference_row_echelon(a, b, tol=1e-9):
    """The row reduction as it was before its call-level speedups."""
    a = np.array(a, dtype=HOST_DTYPE, copy=True)
    b = np.array(b, dtype=HOST_DTYPE, copy=True).reshape(-1)
    m, n = a.shape
    if b.shape != (m,):
        raise ValueError(f"rhs shape {b.shape} incompatible with matrix {a.shape}")
    if m == 0:
        return a, b, []
    aug = np.hstack([a, b[:, None]])
    scale = np.max(np.abs(aug))
    if scale == 0.0:
        return np.zeros((0, n)), np.zeros(0), []
    threshold = max(tol * scale, np.finfo(HOST_DTYPE).tiny)
    infeasible_threshold = tol * max(scale, 1.0)
    rank = 0
    pivot_cols: list[int] = []
    for col in range(n):
        if rank >= m:
            break
        pivot = rank + int(np.argmax(np.abs(aug[rank:, col])))
        if abs(aug[pivot, col]) <= threshold:
            continue
        if pivot != rank:
            aug[[rank, pivot]] = aug[[pivot, rank]]
        aug[rank] /= aug[rank, col]
        others = np.abs(aug[:, col]) > 0
        others[rank] = False
        aug[others] -= np.outer(aug[others, col], aug[rank])
        pivot_cols.append(col)
        rank += 1
    if rank < m:
        tail_rhs = np.abs(aug[rank:, n])
        bad = tail_rhs > infeasible_threshold
        if np.any(bad):
            raise InfeasibleError(
                f"inconsistent local system: 0 = {float(tail_rhs[bad][0]):.3e} "
                f"after row reduction"
            )
    return aug[:rank, :n], aug[:rank, n], pivot_cols


def reference_projection_data(a, b):
    """The projection as it was, through scipy's Cholesky wrappers."""
    n = a.shape[1]
    m = a.shape[0]
    if m == 0:
        return np.eye(n), np.zeros(n)
    k = a @ a.T
    try:
        cho = sla.cho_factor(k, check_finite=False)
    except sla.LinAlgError as exc:
        raise DecompositionError(
            "A_s A_s^T is singular; A_s must have full row rank (apply row reduction)"
        ) from exc
    g = sla.cho_solve(cho, a, check_finite=False)
    mmat = np.eye(n) - a.T @ g
    bbar = a.T @ sla.cho_solve(cho, b, check_finite=False)
    return mmat, bbar


class RebuildPlan:
    """A serving plan that rebuilds every scenario from scratch, as
    ``TopologyPlan.build_scenario`` did before the parametric build."""

    def __init__(self, feeder: str, method: str):
        self.method = method
        self.net = resolve_feeder(feeder)
        plan = TopologyPlan(feeder, method)
        self.n_vars = plan.n_vars
        self.owner_to_spec = plan._owner_to_spec
        self.local_keys = plan._local_keys
        self.cache: dict = {}
        self.factorizations_computed = 0
        self.factorizations_reused = 0

    def perturbed_network(self, request):
        net = self.net.copy()
        unknown = set(request.load_multipliers) - set(net.loads)
        if unknown:
            raise ValueError(f"unknown loads in multipliers: {sorted(unknown)}")
        for name, load in net.loads.items():
            scale = request.load_scale * request.load_multipliers.get(name, 1.0)
            if scale != 1.0:
                load.p_ref *= scale
                load.q_ref *= scale
        for name, setpoint in request.der_setpoints.items():
            try:
                gen = net.generators[name]
            except KeyError:
                raise ValueError(f"unknown generator {name!r} in der_setpoints") from None
            gen.p_min[:] = setpoint
            gen.p_max[:] = setpoint
        for name, (p_min, p_max) in request.gen_limits.items():
            try:
                gen = net.generators[name]
            except KeyError:
                raise ValueError(f"unknown generator {name!r} in gen_limits") from None
            if p_min is not None:
                gen.p_min[:] = p_min
            if p_max is not None:
                gen.p_max[:] = p_max
            if np.any(gen.p_min > gen.p_max):
                raise ValueError(f"generator {name!r}: p_min exceeds p_max")
        return net

    def build(self, request):
        net = self.perturbed_network(request)
        lp = build_centralized_lp(net)
        assert lp.n_vars == self.n_vars
        rows_by_spec = [[] for _ in self.local_keys]
        for row in lp.rows:
            rows_by_spec[self.owner_to_spec[row.owner]].append(row)
        projections = []
        for s, rows in enumerate(rows_by_spec):
            a_raw, b_raw = rows_to_dense_local(rows, self.local_keys[s])
            digest = hashlib.sha256(a_raw.tobytes() + b_raw.tobytes()).digest()
            cached = self.cache.get((s, digest))
            if cached is None:
                a_red, b_red, _ = reference_row_echelon(a_raw, b_raw)
                if self.method == "qp":
                    cached = (a_red, b_red)
                else:
                    cached = reference_projection_data(a_red, b_red)
                self.cache[(s, digest)] = cached
                self.factorizations_computed += 1
            else:
                self.factorizations_reused += 1
            projections.append(cached)
        signature = np.concatenate(
            [getattr(net.loads[n], f) for n in sorted(net.loads) for f in ("p_ref", "q_ref")]
            + [getattr(net.generators[n], f) for n in sorted(net.generators)
               for f in ("p_min", "p_max")]
        )
        return lp, projections, signature


# -- byte-level comparison -----------------------------------------------------
def assert_same_array(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, what
    assert got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def float_bits(value):
    return float(value).hex()


def row_record(row):
    return (
        row.tag,
        [(key, float_bits(v)) for key, v in row.coeffs.items()],
        float_bits(row.rhs),
        row.owner,
    )


def assert_same_scenario(plan, scenario, rebuild, reference):
    lp, projections, signature = reference
    assert scenario.conic is None
    assert_same_array(scenario.cost, lp.cost, "cost")
    assert_same_array(scenario.lb, lp.lb, "lb")
    assert_same_array(scenario.ub, lp.ub, "ub")
    assert_same_array(scenario.x0_default, lp.initial_point(), "x0_default")
    assert_same_array(scenario.signature, signature, "signature")
    assert len(scenario.projections) == len(projections)
    for s, (got, want) in enumerate(zip(scenario.projections, projections)):
        assert_same_array(got[0], want[0], f"projection {s} matrix")
        assert_same_array(got[1], want[1], f"projection {s} vector")
    got_lp = scenario.lp
    for part in ("indptr", "indices", "data"):
        assert_same_array(
            getattr(got_lp.a_matrix, part), getattr(lp.a_matrix, part), f"A {part}"
        )
    assert got_lp.a_matrix.shape == lp.a_matrix.shape
    assert_same_array(got_lp.b_vector, lp.b_vector, "b")
    assert_same_array(got_lp.cost, lp.cost, "lp cost")
    assert_same_array(got_lp.lb, lp.lb, "lp lb")
    assert_same_array(got_lp.ub, lp.ub, "lp ub")
    assert got_lp.var_index.keys == lp.var_index.keys
    assert_same_array(got_lp.var_index.lower_bounds(), lp.var_index.lower_bounds(), "vi lb")
    assert_same_array(got_lp.var_index.upper_bounds(), lp.var_index.upper_bounds(), "vi ub")
    assert [row_record(r) for r in got_lp.rows] == [row_record(r) for r in lp.rows]
    got_net, want_net = got_lp.network, lp.network
    assert list(got_net.loads) == list(want_net.loads)
    for name, want in want_net.loads.items():
        got = got_net.loads[name]
        for field in ("p_ref", "q_ref", "alpha", "beta"):
            assert_same_array(getattr(got, field), getattr(want, field), f"{name}.{field}")
    assert list(got_net.generators) == list(want_net.generators)
    for name, want in want_net.generators.items():
        got = got_net.generators[name]
        for field in ("p_min", "p_max", "q_min", "q_max"):
            assert_same_array(getattr(got, field), getattr(want, field), f"{name}.{field}")
    assert plan.factorizations_computed == rebuild.factorizations_computed
    assert plan.factorizations_reused == rebuild.factorizations_reused


# -- the equivalence gate ------------------------------------------------------
@pytest.fixture(scope="module")
def plan_pairs():
    """(parametric, rebuild) plan pairs by (feeder, method), shared by every
    example so the caches and counters see a long request stream."""
    pairs: dict = {}

    def get(feeder: str, method: str):
        if (feeder, method) not in pairs:
            pairs[feeder, method] = (TopologyPlan(feeder, method), RebuildPlan(feeder, method))
        return pairs[feeder, method]

    return get


_NETS = {f: resolve_feeder(f) for f in FEEDERS}
MULTIPLIER = st.one_of(
    st.sampled_from([0.0, 1.0, 0.9, 1.1]),
    st.floats(min_value=0.5, max_value=1.5, allow_nan=False),
)
LIMIT = st.one_of(st.none(), st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))


@st.composite
def scenario_requests(draw, feeder: str, method: str):
    net = _NETS[feeder]
    loads = sorted(net.loads)
    gens = sorted(net.generators)
    picked = draw(st.lists(st.sampled_from(loads), unique=True, max_size=len(loads)))
    return OPFRequest(
        request_id="eq",
        feeder=feeder,
        method=method,
        load_scale=draw(st.sampled_from([1.0, 1.0, 0.0, 0.97, 1.05])),
        load_multipliers={name: draw(MULTIPLIER) for name in picked},
        der_setpoints=draw(st.dictionaries(
            st.sampled_from(gens), st.floats(min_value=0.0, max_value=0.1), max_size=2
        )),
        gen_limits=draw(st.dictionaries(
            st.sampled_from(gens), st.tuples(LIMIT, LIMIT), max_size=2
        )),
    )


@pytest.mark.parametrize("method", LP_METHODS)
@pytest.mark.parametrize("feeder", FEEDERS)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_parametric_build_matches_full_rebuild(plan_pairs, feeder, method, data):
    plan, rebuild = plan_pairs(feeder, method)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        request = data.draw(scenario_requests(feeder, method))
        try:
            reference = rebuild.build(request)
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                plan.build_scenario(request)
            assert str(caught.value) == str(exc)
            continue
        scenario = plan.build_scenario(request)
        assert scenario.request is request
        assert_same_scenario(plan, scenario, rebuild, reference)


@pytest.mark.parametrize("method", LP_METHODS)
def test_zero_and_repeated_multipliers_hit_the_cache(method):
    """A zero multiplier drops the load's voltage coefficient from A; a
    repeat of a request re-reduces nothing."""
    plan, rebuild = TopologyPlan("ieee13", method), RebuildPlan("ieee13", method)
    requests = [
        OPFRequest(request_id="a", method=method, load_multipliers={"ld611": 0.0}),
        OPFRequest(request_id="b", method=method, load_multipliers={"ld611": 0.0}),
        OPFRequest(request_id="c", method=method, load_scale=1.05),
        OPFRequest(request_id="d", method=method),
    ]
    for request in requests:
        assert_same_scenario(plan, plan.build_scenario(request), rebuild, rebuild.build(request))
    base = plan.dec.lp.a_matrix.nnz
    assert plan.build_scenario(requests[0]).lp.a_matrix.nnz < base
    computed = plan.factorizations_computed
    plan.build_scenario(requests[1])
    assert plan.factorizations_computed == computed


def base_arrays(plan):
    lp = plan.dec.lp
    arrays = [lp.a_matrix.data, lp.a_matrix.indices, lp.a_matrix.indptr,
              lp.b_vector, lp.cost, lp.lb, lp.ub, lp.initial_point()]
    for comp in plan.dec.components:
        arrays += [comp.a_raw, comp.b_raw]
    for load in plan.net.loads.values():
        arrays += [load.p_ref, load.q_ref]
    for gen in plan.net.generators.values():
        arrays += [gen.p_min, gen.p_max]
    return arrays


@pytest.mark.parametrize("method", LP_METHODS)
def test_serving_leaves_the_base_arrays_untouched(method):
    engine = ScenarioEngine(max_batch=4)
    requests = [
        OPFRequest(request_id=f"r{i}", feeder="ieee13-der", method=method,
                   options=SolveOptions(max_iter=20), **kw)
        for i, kw in enumerate([
            {"load_multipliers": {"ld611": 0.0, "ld634": 1.1}},
            {"load_scale": 0.0},
            {"der_setpoints": {"der671": 0.05}, "gen_limits": {"pv680": (None, 0.01)}},
            {"load_multipliers": {"ld671": 1.02}},
        ])
    ]
    for response in engine.serve(requests):
        assert response.status in ("converged", "iteration_limit"), response.error
    plan = engine.plan_for(requests[0])
    fresh = TopologyPlan("ieee13-der", method)
    for got, want in zip(base_arrays(plan), base_arrays(fresh), strict=True):
        assert_same_array(got, want, "base array")
    lp = plan.dec.lp
    with pytest.raises(ValueError):
        lp.a_matrix.data[0] = 1.0
    with pytest.raises(ValueError):
        plan.dec.components[0].b_raw[...] = 0.0


# -- refactorization identity --------------------------------------------------
ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1e-12, 3e-308, 5e-324]),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)
ENTRY_NAN = st.one_of(ENTRY, st.just(float("nan")))


@st.composite
def systems(draw):
    m = draw(st.integers(min_value=0, max_value=7))
    n = draw(st.integers(min_value=0, max_value=7))
    entry = draw(st.sampled_from([ENTRY, ENTRY_NAN]))
    a = draw(arrays(np.float64, (m, n), elements=entry))
    if m > 1 and draw(st.booleans()):
        # Rank-deficient: a row repeated with a scale.
        a[draw(st.integers(0, m - 1))] = draw(ENTRY) * a[draw(st.integers(0, m - 1))]
    if draw(st.booleans()):
        with np.errstate(all="ignore"):
            b = a @ draw(arrays(np.float64, (n,), elements=ENTRY))  # consistent
    else:
        b = draw(arrays(np.float64, (m,), elements=entry))
    return a, b


def outcome(fn, *args):
    try:
        with np.errstate(all="ignore"):
            result = fn(*args)
    except Exception as exc:  # the exception type is the outcome
        return type(exc)
    return result


@settings(max_examples=400, deadline=None)
@given(system=systems())
def test_refactorization_is_bit_identical(system):
    a, b = system
    a_before, b_before = a.tobytes(), b.tobytes()
    got = outcome(reduced_row_echelon, a, b)
    want = outcome(reference_row_echelon, a, b)
    assert a.tobytes() == a_before and b.tobytes() == b_before
    if isinstance(want, type):
        assert got is want
        return
    assert got[2] == want[2]
    for g, w in zip(got[:2], want[:2]):
        assert_same_array(g, w, "reduced system")
        assert g.size == 0 or g.strides == w.strides  # same memory layout
    for args in ((got[0], got[1]), (a, b)):
        got_p = outcome(projection_data, *args)
        want_p = outcome(reference_projection_data, *args)
        if isinstance(want_p, type):
            assert got_p is want_p
        else:
            for g, w in zip(got_p, want_p):
                assert_same_array(g, w, "projection")


def test_projection_errors_keep_their_messages():
    with pytest.raises(DecompositionError, match="full row rank") as caught:
        projection_data(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 2.0]))
    assert isinstance(caught.value.__cause__, sla.LinAlgError)
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError) as want:
        reference_projection_data(a, np.ones(3))
    with pytest.raises(ValueError) as got:
        projection_data(a, np.ones(3))
    assert str(got.value) == str(want.value)
