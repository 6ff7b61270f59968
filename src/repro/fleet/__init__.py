"""Horizontally sharded multi-worker serving with topology-affinity routing.

The fleet layer scales the single-process
:class:`~repro.serve.ScenarioEngine` out to N workers without giving up
the per-worker cache locality the engine's performance depends on:

* :mod:`repro.fleet.routing` — consistent-hash ring; requests route by
  ``topology_key()`` so each feeder's stream sticks to one worker.
* :mod:`repro.fleet.worker` — one engine per worker, as a deterministic
  in-process :class:`SimWorker` or a real ``multiprocessing``
  :class:`ProcessWorker`; both post the same worker messages.
* :mod:`repro.fleet.frontend` — the :class:`FleetFrontend`: routing,
  spill on full queues, per-worker circuit breakers, dead-worker
  failover (re-route, never drop), structured backpressure.
* :mod:`repro.fleet.loadgen` — seeded Poisson / closed-loop load tests
  reporting latency percentiles straight from the fleet telemetry.
* :mod:`repro.fleet.supervisor` — the self-healing layer: heartbeat
  health checks, auto-restart with seeded backoff, crash-loop
  quarantine, cache re-warming, graceful drain.
* :mod:`repro.fleet.chaos` — the seeded kill/restart soak harness
  proving exactly-once + bit-identical + capacity-recovered invariants.

See docs/SERVING.md (fleet section) for the architecture and
``repro serve-fleet`` / ``repro fleet-chaos`` for the CLI entry points.
"""

from repro.fleet.chaos import ChaosSoakReport, run_chaos_soak
from repro.fleet.frontend import (
    MODE_PROCESS,
    MODE_SIM,
    FleetConfig,
    FleetFrontend,
    FleetSaturatedError,
)
from repro.fleet.loadgen import (
    LoadTestReport,
    generate_mixed_scenarios,
    poisson_arrival_times,
    run_closed_loop,
    run_open_loop,
)
from repro.fleet.routing import DEFAULT_REPLICAS, HashRing, stable_hash
from repro.fleet.supervisor import FleetSupervisor, SupervisorConfig, WorkerHealth
from repro.fleet.worker import (
    CRASH_EXIT_CODE,
    ProcessWorker,
    SimWorker,
    WorkerQueueFull,
    WorkerSpec,
)

__all__ = [
    "FleetConfig",
    "FleetFrontend",
    "FleetSaturatedError",
    "MODE_SIM",
    "MODE_PROCESS",
    "HashRing",
    "stable_hash",
    "DEFAULT_REPLICAS",
    "WorkerSpec",
    "SimWorker",
    "ProcessWorker",
    "WorkerQueueFull",
    "CRASH_EXIT_CODE",
    "LoadTestReport",
    "generate_mixed_scenarios",
    "poisson_arrival_times",
    "run_open_loop",
    "run_closed_loop",
    "FleetSupervisor",
    "SupervisorConfig",
    "WorkerHealth",
    "ChaosSoakReport",
    "run_chaos_soak",
]
