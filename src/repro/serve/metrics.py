"""Serving metrics: counters, batch occupancy, warm-start savings, latency.

One :class:`ServingMetrics` instance accompanies a
:class:`~repro.serve.engine.ScenarioEngine` for its lifetime;
:meth:`ServingMetrics.snapshot` exports everything as a flat dict for the
CLI table and the throughput benchmark.  Latencies are measured by the
engine (submit-to-response, so queue wait is included).

All distribution-valued quantities (latency, queue wait, batch size,
warm/cold iteration counts, modeled GPU iteration time) are
:class:`~repro.telemetry.ReservoirHistogram` sketches on a shared
:class:`~repro.telemetry.MetricsRegistry` — bounded memory no matter how
long the server runs, with exact counts/means and reservoir percentiles.
"""

from __future__ import annotations

from repro.telemetry.metrics import MetricsRegistry, ReservoirHistogram

#: Reservoir bound for every serving histogram: large enough that
#: percentiles are exact for benchmark-scale runs, constant-memory beyond.
RESERVOIR_SAMPLES = 4096


class ServingMetrics:
    """Aggregated serving statistics (reset-free, monotone counters)."""

    def __init__(self, max_batch: int = 0, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.max_batch = max_batch  # occupancy denominator, set by the engine
        reg = self.registry
        self._submitted = reg.counter("serve.submitted")
        self._served = reg.counter("serve.served")
        self._rejected = reg.counter("serve.rejected")
        self._errors = reg.counter("serve.errors")
        self._converged = reg.counter("serve.converged")
        self._iteration_limit = reg.counter("serve.iteration_limit")
        self._n_batches = reg.counter("serve.n_batches")
        self._factorizations_computed = reg.counter("serve.factorizations_computed")
        self._factorizations_reused = reg.counter("serve.factorizations_reused")
        # Active-set polish (docs/ALGORITHMS.md §11), counted per scenario.
        self._polish_attempts = reg.counter("serve.polish_attempts")
        self._polish_certified = reg.counter("serve.polish_certified")
        # Resilience counters (docs/RESILIENCE.md): retries of diverged
        # solves, degradations to the reference LP, divergent scenarios,
        # deadline timeouts, breaker trips and breaker-rejected requests.
        self._retries = reg.counter("solve.retry")
        self._breaker_opened = reg.counter("breaker.open")
        self._degraded = reg.counter("serve.degraded")
        self._divergent = reg.counter("serve.divergent")
        self._timeouts = reg.counter("serve.timeouts")
        self._breaker_rejections = reg.counter("serve.breaker_rejections")
        self._queue_depth = reg.gauge("serve.queue_depth")
        self._retry_after = reg.gauge("serve.backpressure_retry_after_s")
        # Stochastic workloads (docs/STOCHASTIC.md): scenario-set requests
        # expanded into ADMM batches, and rolling-horizon schedules.
        self._stochastic_requests = reg.counter("stochastic.requests")
        self._stochastic_scenarios = reg.counter("stochastic.scenarios")
        self._multiperiod_requests = reg.counter("stochastic.multiperiod_requests")

        def hist(name: str) -> ReservoirHistogram:
            return reg.histogram(name, max_samples=RESERVOIR_SAMPLES)

        self.batch_sizes = hist("serve.batch_size")
        self.stochastic_scenarios_per_request = hist("stochastic.scenarios_per_request")
        self.warm_iterations = hist("serve.warm_iterations")
        self.cold_iterations = hist("serve.cold_iterations")
        self.latencies_s = hist("serve.latency_s")
        self.queue_wait_s = hist("serve.queue_wait_s")
        self.modeled_gpu_iteration_s = hist("serve.modeled_gpu_iteration_s")
        self.solve_seconds = 0.0
        self.wall_seconds = 0.0

    # ------------------------------------------------------------------
    # Counter views (kept as attributes-like properties for callers)
    # ------------------------------------------------------------------
    @property
    def submitted(self) -> int:
        return self._submitted.value

    @property
    def served(self) -> int:
        return self._served.value

    @property
    def rejected(self) -> int:
        return self._rejected.value

    @property
    def errors(self) -> int:
        return self._errors.value

    @property
    def converged(self) -> int:
        return self._converged.value

    @property
    def iteration_limit(self) -> int:
        return self._iteration_limit.value

    @property
    def n_batches(self) -> int:
        return self._n_batches.value

    @property
    def factorizations_computed(self) -> int:
        return self._factorizations_computed.value

    @property
    def factorizations_reused(self) -> int:
        return self._factorizations_reused.value

    @property
    def retries(self) -> int:
        return self._retries.value

    @property
    def breaker_opened(self) -> int:
        return self._breaker_opened.value

    @property
    def degraded(self) -> int:
        return self._degraded.value

    @property
    def divergent(self) -> int:
        return self._divergent.value

    @property
    def timeouts(self) -> int:
        return self._timeouts.value

    @property
    def breaker_rejections(self) -> int:
        return self._breaker_rejections.value

    # ------------------------------------------------------------------
    # Recording hooks (called by the engine)
    # ------------------------------------------------------------------
    def record_submit(self, accepted: bool) -> None:
        self._submitted.inc()
        if not accepted:
            self._rejected.inc()

    def record_batch(self, size: int) -> None:
        self._n_batches.inc()
        self.batch_sizes.observe(int(size))

    def record_queue_wait(self, seconds: float) -> None:
        self.queue_wait_s.observe(float(seconds))

    def record_response(
        self, status: str, iterations: int, warm: bool, latency_s: float
    ) -> None:
        self._served.inc()
        self.latencies_s.observe(float(latency_s))
        if status == "converged":
            self._converged.inc()
            if iterations > 0:  # degraded responses carry no ADMM iterations
                target = self.warm_iterations if warm else self.cold_iterations
                target.observe(int(iterations))
        elif status == "iteration_limit":
            self._iteration_limit.inc()
        elif status == "timeout":
            self._timeouts.inc()
        elif status == "rejected":
            self._rejected.inc()
        else:
            self._errors.inc()

    def record_retry(self) -> None:
        self._retries.inc()

    def record_divergent(self) -> None:
        self._divergent.inc()

    def record_degraded(self) -> None:
        self._degraded.inc()

    def record_breaker_open(self) -> None:
        self._breaker_opened.inc()

    def record_breaker_rejection(self) -> None:
        self._breaker_rejections.inc()

    def record_backpressure(self, queue_depth: int, retry_after_s: float) -> None:
        self._queue_depth.set(queue_depth)
        self._retry_after.set(retry_after_s)

    def record_factorizations(self, computed: int, reused: int) -> None:
        self._factorizations_computed.inc(int(computed))
        self._factorizations_reused.inc(int(reused))

    def record_polish(self, attempts: int, certified: int) -> None:
        self._polish_attempts.inc(int(attempts))
        self._polish_certified.inc(int(certified))

    def record_modeled_gpu_iteration(self, seconds: float) -> None:
        self.modeled_gpu_iteration_s.observe(float(seconds))

    def record_stochastic(self, n_scenarios: int) -> None:
        self._stochastic_requests.inc()
        self._stochastic_scenarios.inc(int(n_scenarios))
        self.stochastic_scenarios_per_request.observe(int(n_scenarios))

    def record_multiperiod(self) -> None:
        self._multiperiod_requests.inc()

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def batch_occupancy(self) -> float:
        """Mean fill fraction of dispatched batches (1.0 = always full)."""
        if not self.batch_sizes.count or self.max_batch < 1:
            return 0.0
        return self.batch_sizes.mean / self.max_batch

    @property
    def mean_warm_iterations(self) -> float:
        return self.warm_iterations.mean

    @property
    def mean_cold_iterations(self) -> float:
        return self.cold_iterations.mean

    @property
    def warm_start_iteration_savings(self) -> float:
        """Relative iteration reduction of warm over cold starts (0..1)."""
        mean_warm = self.mean_warm_iterations
        mean_cold = self.mean_cold_iterations
        no_data = not self.warm_iterations.count or not self.cold_iterations.count
        if no_data or mean_cold == 0.0:
            return 0.0
        return 1.0 - mean_warm / mean_cold

    @property
    def scenarios_per_second(self) -> float:
        return self.served / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def snapshot(self, cache_stats: dict | None = None) -> dict:
        """Flat dict export for the CLI summary and benchmarks."""
        snap = {
            "submitted": self.submitted,
            "served": self.served,
            "rejected": self.rejected,
            "converged": self.converged,
            "iteration_limit": self.iteration_limit,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "divergent": self.divergent,
            "degraded": self.degraded,
            "breaker_opened": self.breaker_opened,
            "breaker_rejections": self.breaker_rejections,
            "queue_depth": int(self._queue_depth.value),
            "backpressure_retry_after_s": round(self._retry_after.value, 4),
            "n_batches": self.n_batches,
            "batch_occupancy": round(self.batch_occupancy, 4),
            "mean_warm_iterations": round(self.mean_warm_iterations, 1),
            "mean_cold_iterations": round(self.mean_cold_iterations, 1),
            "warm_start_iteration_savings": round(self.warm_start_iteration_savings, 4),
            "factorizations_computed": self.factorizations_computed,
            "factorizations_reused": self.factorizations_reused,
            "polish_attempts": self._polish_attempts.value,
            "polish_certified": self._polish_certified.value,
            "queue_wait_p50_ms": round(1e3 * self.queue_wait_s.percentile(50), 3),
            "latency_p50_ms": round(1e3 * self.latencies_s.percentile(50), 3),
            "latency_p90_ms": round(1e3 * self.latencies_s.percentile(90), 3),
            "latency_p99_ms": round(1e3 * self.latencies_s.percentile(99), 3),
            "solve_seconds": round(self.solve_seconds, 4),
            "wall_seconds": round(self.wall_seconds, 4),
            "scenarios_per_second": round(self.scenarios_per_second, 2),
            "modeled_gpu_iteration_us": round(
                1e6 * self.modeled_gpu_iteration_s.mean, 2
            ),
            "stochastic_requests": self._stochastic_requests.value,
            "stochastic_scenarios": self._stochastic_scenarios.value,
            "multiperiod_requests": self._multiperiod_requests.value,
        }
        if cache_stats is not None:
            snap.update({f"cache_{k}": v for k, v in cache_stats.items()})
        return snap
