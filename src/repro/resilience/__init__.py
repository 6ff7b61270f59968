"""Fault injection, consensus checkpoints, and serving resilience policies.

Three layers, one theme — keep Algorithm 1 deterministic under failure:

* :mod:`repro.resilience.faults` — seeded, declarative chaos plans
  (:class:`FaultPlan`) applied by a :class:`FaultInjector`;
* :mod:`repro.resilience.checkpoint` — the consensus-state checkpoints
  :class:`repro.parallel.DistributedADMMRunner` restores after a rank
  crash (reassign + restore + replay, bit-identical to the serial
  trajectory);
* :mod:`repro.resilience.policy` — the serving-side knobs (retry with
  deterministic backoff jitter, per-topology circuit breaker, graceful
  degradation) consumed by :class:`repro.serve.ScenarioEngine`.

See ``docs/RESILIENCE.md`` for the end-to-end story.
"""

from repro.resilience.checkpoint import Checkpoint, CheckpointStore
from repro.resilience.faults import (
    ANY_TARGET,
    NULL_INJECTOR,
    FaultInjector,
    FaultPlan,
    MessageDelay,
    MessageDrop,
    NaNCorruption,
    RankCrash,
    StragglerSlowdown,
    WorkerCrash,
)
from repro.resilience.policy import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    CircuitOpenError,
    ResilienceConfig,
    RetryPolicy,
)

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "NULL_INJECTOR",
    "ANY_TARGET",
    "RankCrash",
    "StragglerSlowdown",
    "MessageDrop",
    "MessageDelay",
    "NaNCorruption",
    "WorkerCrash",
    "Checkpoint",
    "CheckpointStore",
    "RetryPolicy",
    "CircuitBreaker",
    "CircuitOpenError",
    "ResilienceConfig",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
]
