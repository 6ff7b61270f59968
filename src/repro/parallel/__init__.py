"""Parallel execution substrate: simulated multi-rank clusters (for the
paper's scaling studies) and a real multi-process executor (for correctness
of the embarrassingly parallel local update)."""

from repro.parallel.assignment import (
    assign_even,
    assign_greedy,
    rank_loads,
    rank_partition,
    reassign_surviving,
)
from repro.parallel.cluster import LocalUpdateTiming, SimulatedCluster, sweep_ranks
from repro.parallel.compression import (
    CompressedMessage,
    CompressedSolverFreeADMM,
    ErrorFeedback,
    TopKCompressor,
    UniformQuantizer,
)
from repro.parallel.comm import (
    BYTES_PER_VALUE,
    CPU_CLUSTER_COMM,
    GPU_CLUSTER_COMM,
    CommModel,
)
from repro.parallel.executor import ProcessParallelLocalUpdate
from repro.parallel.mpi_sim import SimComm
from repro.parallel.runner import (
    DistributedADMMRunner,
    DistributedRunResult,
    FailoverEvent,
    IterationTimeline,
)

__all__ = [
    "CommModel",
    "CPU_CLUSTER_COMM",
    "GPU_CLUSTER_COMM",
    "BYTES_PER_VALUE",
    "SimulatedCluster",
    "LocalUpdateTiming",
    "sweep_ranks",
    "assign_even",
    "assign_greedy",
    "rank_loads",
    "rank_partition",
    "reassign_surviving",
    "ProcessParallelLocalUpdate",
    "SimComm",
    "DistributedADMMRunner",
    "DistributedRunResult",
    "FailoverEvent",
    "IterationTimeline",
    "CompressedSolverFreeADMM",
    "TopKCompressor",
    "UniformQuantizer",
    "ErrorFeedback",
    "CompressedMessage",
]
