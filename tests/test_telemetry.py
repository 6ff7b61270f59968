"""Tests for repro.telemetry: tracer, metrics registry, trace summary."""

import json

import numpy as np
import pytest

from repro.telemetry import (
    NULL_TRACER,
    TRACK_CLUSTER,
    TRACK_GPU,
    Counter,
    Gauge,
    MetricsRegistry,
    ReservoirHistogram,
    Tracer,
    format_trace_summary,
    load_trace_events,
    summarize_phases,
)


class TestTracerSpans:
    def test_span_records_event(self):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        events = tracer.events()
        assert len(events) == 1
        assert events[0].name == "work"
        assert events[0].dur_s >= 0.0
        assert events[0].track == "wall"

    def test_nesting_records_parent_and_ordering(self):
        tracer = Tracer()
        with tracer.span("outer"):
            assert tracer.current_span() == "outer"
            with tracer.span("inner"):
                assert tracer.current_span() == "inner"
        inner, outer = tracer.events()  # inner closes first
        assert inner.name == "inner" and outer.name == "outer"
        assert inner.args["parent"] == "outer"
        assert outer.args is None
        # The child is contained in the parent's interval.
        assert outer.start_s <= inner.start_s
        assert inner.end_s <= outer.end_s + 1e-9

    def test_add_complete_uses_caller_stamps(self):
        tracer = Tracer()
        t0 = tracer._t0
        tracer.add_complete("phase", t0 + 1.0, t0 + 1.5, cat="admm")
        (ev,) = tracer.events()
        assert ev.start_s == pytest.approx(1.0)
        assert ev.dur_s == pytest.approx(0.5)
        assert ev.cat == "admm"

    def test_modeled_span_on_named_track(self):
        tracer = Tracer()
        tracer.add_modeled("gpu.kernel.k", 0.25, 0.5, track=TRACK_GPU, args={"blocks": 7})
        (ev,) = tracer.events()
        assert ev.track == TRACK_GPU
        assert ev.start_s == 0.25 and ev.dur_s == 0.5
        assert ev.args == {"blocks": 7}

    def test_disabled_tracer_is_noop_and_falsy(self):
        tracer = Tracer(enabled=False)
        assert not tracer
        with tracer.span("x"):
            pass
        tracer.add_complete("y", 0.0, 1.0)
        tracer.add_modeled("z", 0.0, 1.0)
        assert len(tracer) == 0
        assert tracer.current_span() is None
        assert not NULL_TRACER

    def test_max_events_bound(self):
        tracer = Tracer(max_events=3)
        for i in range(5):
            tracer.add_modeled(f"e{i}", float(i), 1.0)
        assert len(tracer) == 3
        assert tracer.dropped == 2
        tracer.clear()
        assert len(tracer) == 0 and tracer.dropped == 0


class TestChromeExport:
    def test_golden_chrome_trace(self):
        """Deterministic spans produce an exact, Perfetto-loadable doc."""
        tracer = Tracer()
        tracer.add_modeled("kernel", 0.001, 0.002, track=TRACK_GPU, args={"blocks": 2})
        tracer.add_modeled("compute", 0.0, 0.004, track=TRACK_CLUSTER, tid=1)
        doc = tracer.to_chrome_trace()
        assert doc == {
            "traceEvents": [
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": 3,
                    "tid": 0,
                    "args": {"name": "cluster-sim"},
                },
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 3,
                    "tid": 1,
                    "args": {"name": "rank 1"},
                },
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": 2,
                    "tid": 0,
                    "args": {"name": "gpu-modeled"},
                },
                {
                    "name": "kernel",
                    "ph": "X",
                    "ts": 1000.0,
                    "dur": 2000.0,
                    "pid": 2,
                    "tid": 0,
                    "cat": "modeled",
                    "args": {"blocks": 2},
                },
                {
                    "name": "compute",
                    "ph": "X",
                    "ts": 0.0,
                    "dur": 4000.0,
                    "pid": 3,
                    "tid": 1,
                    "cat": "modeled",
                },
            ],
            "displayTimeUnit": "ms",
            "otherData": {"dropped_events": 0},
        }

    def test_save_and_load_roundtrip(self, tmp_path):
        tracer = Tracer()
        tracer.add_modeled("a", 0.0, 0.5)
        tracer.add_modeled("a", 0.5, 0.25)
        path = tmp_path / "trace.json"
        tracer.save(path)
        events = load_trace_events(path)
        assert [e.name for e in events] == ["a", "a"]
        assert events[0].dur_s == pytest.approx(0.5)
        # The file is valid JSON with a traceEvents array (what Perfetto
        # requires to open it).
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer()
        tracer.add_modeled("k", 0.125, 0.0625, track=TRACK_GPU, tid=2, args={"n": 1})
        path = tmp_path / "trace.jsonl"
        tracer.save(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["name"] == "k"
        (ev,) = load_trace_events(path)
        assert ev.track == TRACK_GPU and ev.tid == 2
        assert ev.start_s == pytest.approx(0.125)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_trace_events(path)
        path.write_text("")
        with pytest.raises(ValueError):
            load_trace_events(path)


class TestSummary:
    def test_per_phase_aggregation(self, tmp_path):
        tracer = Tracer()
        for i in range(4):
            tracer.add_modeled("local", float(i), 0.3, track="wall")
            tracer.add_modeled("global", float(i), 0.1, track="wall")
        tracer.add_modeled("kernel", 0.0, 1.0, track=TRACK_GPU)
        path = tmp_path / "t.json"
        tracer.save(path)
        summaries = summarize_phases(load_trace_events(path))
        by_key = {(s.track, s.name): s for s in summaries}
        local = by_key[("wall", "local")]
        assert local.count == 4
        assert local.total_s == pytest.approx(1.2)
        assert local.mean_s == pytest.approx(0.3)
        assert local.share == pytest.approx(1.2 / 1.6)
        assert by_key[(TRACK_GPU, "kernel")].share == pytest.approx(1.0)
        # Within a track, phases are ordered by descending total time.
        walls = [s for s in summaries if s.track == "wall"]
        assert [s.name for s in walls] == ["local", "global"]

    def test_format_contains_rows(self, tmp_path):
        tracer = Tracer()
        tracer.add_modeled("phase.x", 0.0, 1.0)
        path = tmp_path / "t.json"
        tracer.save(path)
        text = format_trace_summary(load_trace_events(path))
        assert "phase.x" in text and "share %" in text


class TestMetrics:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        c = reg.counter("served")
        c.inc()
        c.inc(4)
        assert reg.counter("served").value == 5
        g = reg.gauge("depth")
        g.set(3)
        assert reg.gauge("depth").value == 3.0
        assert isinstance(c, Counter) and isinstance(g, Gauge)

    def test_histogram_exact_under_capacity(self):
        h = ReservoirHistogram("lat", max_samples=100)
        data = [5.0, 1.0, 3.0, 2.0, 4.0]
        for v in data:
            h.observe(v)
        assert h.count == 5
        assert h.mean == pytest.approx(3.0)
        assert h.vmin == 1.0 and h.vmax == 5.0
        assert h.percentile(50) == pytest.approx(np.percentile(data, 50))
        assert h.percentile(90) == pytest.approx(np.percentile(data, 90))

    def test_reservoir_bounded_and_accurate(self):
        """Percentiles from a 2k reservoir track np.percentile on 50k draws."""
        rng = np.random.default_rng(42)
        data = rng.lognormal(mean=0.0, sigma=1.0, size=50_000)
        h = ReservoirHistogram("lat", max_samples=2048, seed=0)
        for v in data:
            h.observe(v)
        assert len(h) == 2048  # memory bound holds
        assert h.count == 50_000
        assert h.mean == pytest.approx(float(np.mean(data)))  # exact
        for q in (50, 90, 99):
            exact = float(np.percentile(data, q))
            approx = h.percentile(q)
            assert abs(approx - exact) / exact < 0.15, (q, exact, approx)

    def test_add_aggregate_matches_phase_timer_semantics(self):
        h = ReservoirHistogram("t")
        h.add_aggregate(1.5)
        h.add_aggregate(0.5, count=2)
        assert h.count == 3
        assert h.total == pytest.approx(2.0)
        with pytest.raises(ValueError):
            h.add_aggregate(1.0, count=0)

    def test_empty_histogram(self):
        h = ReservoirHistogram("x")
        assert h.mean == 0.0
        assert h.percentile(50) == 0.0
        assert h.summary()["min"] == 0.0

    def test_registry_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.gauge("b").set(1.5)
        h = reg.histogram("c")
        h.observe(10.0)
        snap = reg.snapshot()
        assert snap["a"] == 2
        assert snap["b"] == 1.5
        assert snap["c_count"] == 1
        assert snap["c_mean"] == 10.0


class TestInstrumentationIntegration:
    def test_solver_free_emits_phase_spans(self, ieee13_dec):
        from repro.core import ADMMConfig, SolverFreeADMM

        tracer = Tracer()
        cfg = ADMMConfig(max_iter=10, raise_on_max_iter=False)
        SolverFreeADMM(ieee13_dec, cfg, tracer=tracer).solve()
        names = {e.name for e in tracer.events()}
        assert {"admm.solve", "admm.global", "admm.local", "admm.dual", "admm.residual"} <= names
        # Exactly 4 phase spans per iteration plus the root span.
        assert len(tracer) == 4 * 10 + 1

    def test_solver_free_untraced_has_no_tracer_state(self, ieee13_dec):
        from repro.core import SolverFreeADMM

        solver = SolverFreeADMM(ieee13_dec)
        assert not solver.tracer
        assert solver.solve(max_iter=5).iterations == 5

    def test_runner_emits_rank_spans(self, ieee13_dec):
        from repro.parallel import CPU_CLUSTER_COMM
        from repro.parallel.runner import DistributedADMMRunner

        tracer = Tracer()
        runner = DistributedADMMRunner(ieee13_dec, 4, CPU_CLUSTER_COMM, tracer=tracer)
        runner.solve(max_iter=3)
        cluster = [e for e in tracer.events() if e.track == TRACK_CLUSTER]
        names = {e.name for e in cluster}
        assert {"rank.global_update", "rank.local_update", "comm.scatter", "comm.gather"} <= names
        # Every rank contributed compute spans.
        assert {e.tid for e in cluster if e.name == "rank.local_update"} == set(range(4))

    def test_runner_emits_one_failure_detection_span(self, ieee13_dec):
        from repro.parallel import CPU_CLUSTER_COMM, DistributedADMMRunner
        from repro.resilience import FaultPlan, RankCrash

        tracer = Tracer()
        plan = FaultPlan(faults=(RankCrash(rank=2, at_iteration=5),))
        DistributedADMMRunner(
            ieee13_dec, 4, CPU_CLUSTER_COMM, fault_plan=plan, tracer=tracer
        ).solve(max_iter=12)
        events = tracer.events()
        (at,) = [i for i, e in enumerate(events) if e.name == "resilience.detect_failure"]
        detect = events[at]
        assert (detect.track, detect.tid, detect.dur_s) == (TRACK_CLUSTER, 0, 1e-3)
        # Rank 2 computed before its crash and never after the detection.
        rank2 = [i for i, e in enumerate(events) if e.name == "rank.local_update" and e.tid == 2]
        assert rank2 and max(rank2) < at

    def test_kernel_sim_emits_modeled_span(self):
        from repro.gpu.device import A100
        from repro.gpu.kernel_sim import simulate_local_update

        tracer = Tracer()
        execution = simulate_local_update(
            A100, np.array([4.0, 9.0, 16.0]), 32, tracer=tracer, t_start_s=1.0
        )
        (ev,) = tracer.events()
        assert ev.name == "gpu.kernel.local_update"
        assert ev.track == TRACK_GPU
        assert ev.start_s == pytest.approx(1.0)
        assert ev.dur_s == pytest.approx(execution.time_s)
        assert ev.args["blocks"] == 3
