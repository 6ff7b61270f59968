"""Tests for the batched scenario-serving engine (repro.serve)."""

import numpy as np
import pytest

from repro.serve import (
    STATUS_CONVERGED,
    STATUS_ERROR,
    STATUS_ITERATION_LIMIT,
    STATUS_REJECTED,
    BatchScheduler,
    BoundedRequestQueue,
    OPFRequest,
    QueueFullError,
    ScenarioEngine,
    SolveOptions,
    WarmStartCache,
    load_requests_json,
    save_requests_json,
)


def _sig(*values):
    return np.asarray(values, dtype=float)


class TestWarmStartCache:
    def test_miss_on_empty(self):
        cache = WarmStartCache(capacity=4)
        assert cache.lookup("topo", _sig(1.0)) is None
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.0

    def test_hit_returns_nearest(self):
        cache = WarmStartCache(capacity=4)
        for i, scale in enumerate([1.0, 1.2, 1.4]):
            cache.store("topo", f"s{i}", _sig(scale), _sig(scale), _sig(scale), _sig(0.0), 100)
        entry, dist = cache.lookup("topo", _sig(1.19))
        assert entry.signature[0] == pytest.approx(1.2)
        assert dist == pytest.approx(0.01)
        assert cache.stats.hits == 1

    def test_topology_isolation(self):
        cache = WarmStartCache(capacity=4)
        cache.store("a", "s", _sig(1.0), _sig(1.0), _sig(1.0), _sig(0.0), 10)
        assert cache.lookup("b", _sig(1.0)) is None

    def test_shape_mismatch_is_miss(self):
        cache = WarmStartCache(capacity=4)
        cache.store("topo", "s", _sig(1.0), _sig(1.0), _sig(1.0), _sig(0.0), 10)
        assert cache.lookup("topo", _sig(1.0, 2.0)) is None

    def test_lru_eviction(self):
        cache = WarmStartCache(capacity=2)
        for i in range(3):
            cache.store("topo", f"s{i}", _sig(float(i)), _sig(0.0), _sig(0.0), _sig(0.0), 1)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # s0 was evicted; s1 and s2 remain
        entry, _ = cache.lookup("topo", _sig(0.0))
        assert entry.signature[0] == pytest.approx(1.0)

    def test_lookup_refreshes_lru_order(self):
        cache = WarmStartCache(capacity=2)
        cache.store("topo", "s0", _sig(0.0), _sig(0.0), _sig(0.0), _sig(0.0), 1)
        cache.store("topo", "s1", _sig(10.0), _sig(0.0), _sig(0.0), _sig(0.0), 1)
        cache.lookup("topo", _sig(0.0))  # touches s0 -> s1 becomes LRU
        cache.store("topo", "s2", _sig(20.0), _sig(0.0), _sig(0.0), _sig(0.0), 1)
        entry, _ = cache.lookup("topo", _sig(0.0))
        assert entry.signature[0] == pytest.approx(0.0)

    def test_stored_arrays_are_copies(self):
        cache = WarmStartCache(capacity=2)
        x = _sig(1.0)
        cache.store("topo", "s", _sig(0.0), x, _sig(0.0), _sig(0.0), 1)
        x[0] = 99.0
        entry, _ = cache.lookup("topo", _sig(0.0))
        assert entry.x[0] == pytest.approx(1.0)


class TestQueueAndScheduler:
    def test_backpressure_raises_when_full(self):
        queue = BoundedRequestQueue(maxsize=2)
        queue.submit(OPFRequest(request_id="a"))
        queue.submit(OPFRequest(request_id="b"))
        assert queue.full
        with pytest.raises(QueueFullError):
            queue.submit(OPFRequest(request_id="c"))
        assert len(queue) == 2

    def test_batch_groups_by_topology_key(self):
        queue = BoundedRequestQueue(maxsize=8)
        # interleave two topologies; keys depend only on the feeder string
        for i, feeder in enumerate(["f1", "f2", "f1", "f1", "f2"]):
            queue.submit(OPFRequest(request_id=f"r{i}", feeder=feeder))
        sched = BatchScheduler(queue, max_batch=4)
        first = sched.next_batch()
        assert [r.request_id for r in first] == ["r0", "r2", "r3"]
        second = sched.next_batch()
        assert [r.request_id for r in second] == ["r1", "r4"]
        assert sched.next_batch() == []

    def test_batch_window_respects_max_batch(self):
        queue = BoundedRequestQueue(maxsize=8)
        for i in range(5):
            queue.submit(OPFRequest(request_id=f"r{i}"))
        sched = BatchScheduler(queue, max_batch=3)
        assert len(sched.next_batch()) == 3
        assert len(sched.next_batch()) == 2

    def test_skipped_requests_keep_fifo_order(self):
        queue = BoundedRequestQueue(maxsize=8)
        for i, feeder in enumerate(["f2", "f1", "f2"]):
            queue.submit(OPFRequest(request_id=f"r{i}", feeder=feeder))
        queue.drain_matching(OPFRequest(request_id="x", feeder="f2").topology_key(), 10)
        assert [r.request_id for r in queue._items] == ["r1"]


class TestRequests:
    def test_topology_key_ignores_perturbations(self):
        a = OPFRequest(request_id="a", load_scale=1.3)
        b = OPFRequest(request_id="b", load_multipliers={"ld675": 0.8})
        assert a.topology_key() == b.topology_key()
        c = OPFRequest(request_id="c", feeder="ieee123")
        assert a.topology_key() != c.topology_key()

    def test_scenario_key_depends_on_perturbations(self):
        a = OPFRequest(request_id="a", load_scale=1.3)
        b = OPFRequest(request_id="b", load_scale=1.3)
        c = OPFRequest(request_id="c", load_scale=1.31)
        assert a.scenario_key() == b.scenario_key()
        assert a.scenario_key() != c.scenario_key()

    def test_json_round_trip(self, tmp_path):
        reqs = [
            OPFRequest(
                request_id="r0",
                load_scale=1.1,
                load_multipliers={"ld675": 0.9},
                gen_limits={"source": (None, 5.0)},
                options=SolveOptions(rho=50.0, max_iter=1000),
            ),
            OPFRequest(request_id="r1", der_setpoints={"pv1": 0.02}),
        ]
        path = tmp_path / "scenarios.json"
        save_requests_json(reqs, path)
        back = load_requests_json(path)
        assert [r.request_id for r in back] == ["r0", "r1"]
        assert back[0].options.rho == pytest.approx(50.0)
        assert back[0].gen_limits["source"] == (None, 5.0)
        assert back[1].der_setpoints == {"pv1": 0.02}

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError):
            SolveOptions(rho=0.0)
        with pytest.raises(ValueError):
            OPFRequest(request_id="r", load_scale=-1.0)


@pytest.fixture(scope="module")
def served_engine():
    """One engine that served a cold batch then a perturbed warm batch."""
    engine = ScenarioEngine(max_batch=4, queue_size=16, cache_capacity=8)
    paper = SolveOptions(polish=False)
    cold = [
        OPFRequest(request_id=f"cold{i}", load_scale=1.0 + 0.04 * i, options=paper)
        for i in range(3)
    ]
    warm = [
        OPFRequest(request_id=f"warm{i}", load_scale=1.005 + 0.04 * i, options=paper)
        for i in range(3)
    ]
    cold_resp = engine.serve(cold)
    warm_resp = engine.serve(warm)
    return engine, cold_resp, warm_resp


class TestScenarioEngine:
    def test_all_converge(self, served_engine):
        _, cold_resp, warm_resp = served_engine
        assert all(r.status == STATUS_CONVERGED for r in cold_resp + warm_resp)
        assert all(r.objective is not None for r in cold_resp + warm_resp)

    def test_warm_start_saves_iterations(self, served_engine):
        """A warm-started solve on a perturbed load converges in fewer
        iterations than the cold solve it was seeded from."""
        _, cold_resp, warm_resp = served_engine
        assert all(not r.warm_started for r in cold_resp)
        assert all(r.warm_started for r in warm_resp)
        mean_cold = np.mean([r.iterations for r in cold_resp])
        mean_warm = np.mean([r.iterations for r in warm_resp])
        assert mean_warm < mean_cold
        assert all(r.warm_distance is not None for r in warm_resp)

    def test_objectives_increase_with_load(self, served_engine):
        _, cold_resp, _ = served_engine
        objs = [r.objective for r in cold_resp]
        assert objs == sorted(objs)

    def test_metrics_snapshot(self, served_engine):
        engine, _, _ = served_engine
        snap = engine.snapshot()
        assert snap["served"] == 6
        assert snap["converged"] == 6
        assert snap["cache_hit_rate"] > 0
        assert snap["mean_warm_iterations"] < snap["mean_cold_iterations"]
        assert snap["factorizations_reused"] > 0
        assert snap["latency_p50_ms"] > 0

    def test_projection_cache_shares_factorizations(self, served_engine):
        engine, _, _ = served_engine
        plan = next(iter(engine.plans.values()))
        # line components carry no load terms: identical bytes across all
        # six scenarios, so far more reuses than fresh factorizations
        total = plan.factorizations_computed + plan.factorizations_reused
        assert total == 0  # drained into metrics by snapshot()

    def test_engine_rejects_when_queue_full(self):
        engine = ScenarioEngine(max_batch=2, queue_size=2)
        assert engine.submit(OPFRequest(request_id="a")) is None
        assert engine.submit(OPFRequest(request_id="b")) is None
        resp = engine.submit(OPFRequest(request_id="c"))
        assert resp is not None and resp.status == STATUS_REJECTED
        assert engine.metrics.rejected == 1

    def test_unknown_names_produce_error_responses(self):
        engine = ScenarioEngine(max_batch=4)
        resps = engine.serve(
            [
                OPFRequest(request_id="bad-load", load_multipliers={"nope": 1.1}),
                OPFRequest(request_id="bad-gen", der_setpoints={"nope": 0.1}),
            ]
        )
        assert all(r.status == STATUS_ERROR for r in resps)
        assert "nope" in resps[0].error

    def test_iteration_limit_status(self):
        engine = ScenarioEngine(max_batch=2)
        resps = engine.serve(
            [
                OPFRequest(
                    request_id="tight", options=SolveOptions(max_iter=5, polish=False)
                )
            ]
        )
        assert resps[0].status == STATUS_ITERATION_LIMIT
        assert resps[0].iterations == 5

    def test_mixed_budgets_in_one_batch(self):
        """Per-scenario budgets: a tight-budget scenario hits its limit while
        its batchmate keeps iterating to convergence."""
        engine = ScenarioEngine(max_batch=4)
        resps = engine.serve(
            [
                OPFRequest(
                    request_id="full", load_scale=1.0, options=SolveOptions(polish=False)
                ),
                OPFRequest(
                    request_id="tight",
                    load_scale=1.02,
                    options=SolveOptions(max_iter=10, polish=False),
                ),
            ]
        )
        by_id = {r.request_id: r for r in resps}
        assert by_id["full"].status == STATUS_CONVERGED
        assert by_id["tight"].status == STATUS_ITERATION_LIMIT
        assert by_id["tight"].iterations == 10
        assert by_id["full"].iterations > 10

    @pytest.mark.parametrize(
        "method, max_iter",
        [("linearized", 20_000), ("qp", 200), ("socp", 1_000)],
    )
    def test_stacked_batch_matches_single_solves(self, method, max_iter):
        """Scenarios solved together in one stacked batch follow the same
        iteration trajectory as cold solo solves: identical objectives and
        iteration counts, on every rung (qp and socp at capped budgets)."""
        scales = [1.0, 1.05, 1.1]
        batched = ScenarioEngine(max_batch=4)
        single = ScenarioEngine(max_batch=1)
        reqs = lambda: [  # noqa: E731 - tiny local factory
            OPFRequest(
                request_id=f"s{i}",
                load_scale=s,
                method=method,
                options=SolveOptions(max_iter=max_iter),
            )
            for i, s in enumerate(scales)
        ]
        rb = {r.request_id: r for r in batched.serve(reqs())}
        rs = {}
        for req in reqs():
            single.cache.clear()  # keep every solo solve cold
            rs.update({r.request_id: r for r in single.serve([req])})
        for rid in rb:
            assert rb[rid].objective == pytest.approx(rs[rid].objective, abs=1e-9)
            assert rb[rid].iterations == rs[rid].iterations

    def test_gen_limit_perturbation_changes_solution(self):
        engine = ScenarioEngine(max_batch=2)
        resps = engine.serve(
            [
                OPFRequest(request_id="base"),
                OPFRequest(request_id="capped", gen_limits={"source": (None, 0.3)}),
            ]
        )
        by_id = {r.request_id: r for r in resps}
        assert by_id["base"].status == STATUS_CONVERGED
        # substation capped below demand: scenario cannot meet the balance
        # exactly but the solve still terminates with a well-defined status
        assert by_id["capped"].status in (STATUS_CONVERGED, STATUS_ITERATION_LIMIT)


class TestServeBatchCLI:
    def test_cli_end_to_end(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "report.json"
        scen = tmp_path / "scenarios.json"
        rc = main(
            [
                "serve-batch",
                "--generate",
                "8",
                "--seed",
                "3",
                "--max-batch",
                "4",
                "--save-scenarios",
                str(scen),
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        captured = capsys.readouterr().out
        assert "serving metrics" in captured
        assert scen.exists() and out.exists()
        import json

        report = json.loads(out.read_text())
        assert report["metrics"]["served"] == 8
        assert report["metrics"]["cache_hit_rate"] > 0
        assert len(report["responses"]) == 8


class TestServingMetrics:
    def test_warm_start_savings_no_data(self):
        from repro.serve.metrics import ServingMetrics

        m = ServingMetrics()
        assert m.warm_start_iteration_savings == 0.0
        # Warm data without a cold baseline still yields no savings claim.
        m.record_response("converged", 10, warm=True, latency_s=0.01)
        assert m.warm_start_iteration_savings == 0.0

    def test_warm_start_savings_zero_cold_mean(self):
        from repro.serve.metrics import ServingMetrics

        m = ServingMetrics()
        m.record_response("converged", 0, warm=False, latency_s=0.01)
        m.record_response("converged", 5, warm=True, latency_s=0.01)
        assert m.warm_start_iteration_savings == 0.0

    def test_warm_start_savings_basic(self):
        from repro.serve.metrics import ServingMetrics

        m = ServingMetrics()
        m.record_response("converged", 100, warm=False, latency_s=0.01)
        m.record_response("converged", 200, warm=False, latency_s=0.01)
        m.record_response("converged", 30, warm=True, latency_s=0.01)
        assert m.warm_start_iteration_savings == pytest.approx(1.0 - 30.0 / 150.0)

    def test_latency_memory_is_bounded(self):
        from repro.serve.metrics import RESERVOIR_SAMPLES, ServingMetrics

        m = ServingMetrics()
        n = RESERVOIR_SAMPLES + 500
        for i in range(n):
            m.record_response("converged", 50, warm=False, latency_s=1e-3 * (i + 1))
        assert m.latencies_s.count == n  # exact count survives the cap
        assert len(m.latencies_s) == RESERVOIR_SAMPLES  # sample is bounded
        assert m.served == n
        assert m.snapshot()["latency_p50_ms"] > 0.0

    def test_snapshot_has_queue_wait(self):
        from repro.serve.metrics import ServingMetrics

        m = ServingMetrics()
        m.record_queue_wait(0.002)
        snap = m.snapshot()
        assert snap["queue_wait_p50_ms"] == pytest.approx(2.0)


class TestNonFiniteRequests:
    """NaN or infinite perturbations are rejected where requests enter,
    before they can poison a stacked batch or the LP."""

    FIELDS = {
        "load_scale": lambda v: {"load_scale": v},
        "load_multipliers": lambda v: {"load_multipliers": {"ld611": v}},
        "der_setpoints": lambda v: {"der_setpoints": {"source": v}},
        "gen_limits": lambda v: {"gen_limits": {"source": (None, v)}},
        "gen_limits_min": lambda v: {"gen_limits": {"source": (v, None)}},
    }

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", sorted(FIELDS))
    def test_rejected_naming_the_field(self, field, value):
        kwargs = self.FIELDS[field](value)
        name = field.removesuffix("_min")
        with pytest.raises(ValueError, match=rf"^{name}\b.*must be finite"):
            OPFRequest(request_id="r", **kwargs)
        d = OPFRequest(request_id="r").to_dict()
        d.update(kwargs)
        with pytest.raises(ValueError, match="must be finite"):
            OPFRequest.from_dict(d)

    def test_scenario_file_with_nan_is_malformed(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "nan.json"
        path.write_text('[{"request_id": "r", "load_multipliers": {"ld611": NaN}}]')
        with pytest.raises(ValueError, match="malformed scenario.*must be finite"):
            load_requests_json(path)
        with pytest.raises(SystemExit, match="cannot read scenarios"):
            main(["serve-batch", "--scenarios", str(path)])
