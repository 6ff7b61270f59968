"""The canonical registry of metric and span names the system emits.

Every *literal* name passed to ``counter``/``gauge``/``histogram`` must
be in :data:`METRIC_NAMES`, and every literal ``span``/``add_complete``/
``add_modeled`` name must be in :data:`SPAN_NAMES`.  The whole-program
lint rule **R102** enforces both directions: an unregistered call site
fails lint (so a typo cannot silently fork a metric series), and a
registered-but-never-emitted name fails lint (so this file describes
exactly what the running system produces — it is the dashboard/alerting
source of truth, not an aspiration).

Rule **R004** takes its metric namespaces from this file: a literal
metric name passes only if its first dotted segment is the namespace of
some name in :data:`METRIC_NAMES`.

Names built dynamically (f-strings) are invisible to R102 and skipped by
R004; their prefixes are listed in :data:`DYNAMIC_METRIC_PREFIXES` for
documentation.

Grouped by namespace; keep each group sorted.
"""

from __future__ import annotations

METRIC_NAMES: frozenset[str] = frozenset(
    {
        # breaker / fault / rank / resilience — failure-path accounting
        "breaker.open",
        "fault.injected",
        "rank.failover",
        "resilience.checkpoints",
        "resilience.restores",
        "resilience.stale_rounds",
        # fleet — multi-worker serving plane
        "fleet.accepted",
        "fleet.affinity_miss",
        "fleet.drain.count",
        "fleet.drain.handoff_entries",
        "fleet.heartbeat.missed",
        "fleet.heartbeat.received",
        "fleet.heartbeat.stale",
        "fleet.latency_s",
        "fleet.rejected",
        "fleet.rerouted",
        "fleet.restart.count",
        "fleet.restart.mttr_s",
        "fleet.restart.quarantined",
        "fleet.restart.scheduled",
        "fleet.rewarm.topologies",
        "fleet.rewarm.warm_entries",
        "fleet.spilled",
        "fleet.submitted",
        "fleet.worker_deaths",
        "fleet.workers_alive",
        # methods — fidelity-ladder facade
        "methods.tier_violations",
        "methods.validated",
        # serve — single-process serving engine
        "serve.backpressure_retry_after_s",
        "serve.breaker_rejections",
        "serve.converged",
        "serve.degraded",
        "serve.divergent",
        "serve.errors",
        "serve.factorizations_computed",
        "serve.factorizations_reused",
        "serve.iteration_limit",
        "serve.n_batches",
        "serve.polish_attempts",
        "serve.polish_certified",
        "serve.queue_depth",
        "serve.rejected",
        "serve.served",
        "serve.submitted",
        "serve.timeouts",
        # solve — ADMM driver
        "solve.retry",
        # stochastic — CVaR / multi-period front door
        "stochastic.multiperiod_requests",
        "stochastic.requests",
        "stochastic.scenarios",
    }
)

SPAN_NAMES: frozenset[str] = frozenset(
    {
        # admm — the distributed solve loop
        "admm.dual",
        "admm.global",
        "admm.local",
        "admm.residual",
        "admm.solve",
        # fleet
        "fleet.drain",
        "fleet.failover",
        "fleet.poll",
        "fleet.restart",
        "fleet.rewarm",
        "fleet.route",
        # gpu — batched kernel phases
        "gpu.dual_update",
        "gpu.global_update",
        "gpu.local_update",
        # lint
        "lint.run",
        # resilience
        "resilience.detect_failure",
        # serve
        "serve.batch",
        "serve.multiperiod",
        "serve.polish",
        "serve.retry",
        "serve.solve",
        "serve.warm_lookup",
        # stochastic
        "stochastic.solve",
    }
)

#: Dynamically built metric families (invisible to R102 by design).
#: Format: prefix -> where/why.
DYNAMIC_METRIC_PREFIXES: dict[str, str] = {
    "fleet.queue_depth.": "per-worker queue-depth gauges (fleet.frontend)",
    "methods.batches_": "per-method batch counters (serve.engine)",
    "phase.": "PhaseTimer per-phase histograms, '<prefix><phase>_s' "
    "(utils.timing; prefix is caller-chosen)",
}
