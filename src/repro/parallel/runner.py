"""Rank-explicit distributed execution of Algorithm 1 over simulated MPI.

Where :class:`~repro.parallel.cluster.SimulatedCluster` *models* iteration
time from component costs, this runner actually *executes* the distributed
protocol of the paper's Section IV-E, rank by rank:

1. the aggregator (rank 0) scatters each rank's slice of ``B x``;
2. every rank performs its components' closed-form local updates and its
   dual updates, with its *measured* compute seconds charged to its own
   virtual clock;
3. the aggregator gathers the rank-local ``(z, lambda)`` slices and runs
   the global update and the termination test.

The produced iterates match the serial
:class:`~repro.core.solver_free.SolverFreeADMM` to float tolerance (the
per-rank updates are un-batched; tested), and the run additionally yields
a per-iteration timeline (compute vs communication per rank) — the raw
material of the paper's Fig. 1.

The same loop survives the faults of a seeded
:class:`~repro.resilience.faults.FaultPlan` (docs/RESILIENCE.md):

* **periodic consensus checkpoints** of ``(z, lambda, iteration)`` — one
  ADMM iteration is a pure function of that state, so replay from a
  checkpoint is bit-identical;
* **fail-stop detection and failover**: a crashed rank misses the gather;
  the aggregator charges :data:`FAILURE_DEADLINE_S` of virtual clock,
  removes the rank, re-spreads *all* components near-evenly over the
  survivors (``reassign_surviving``), restores the latest checkpoint,
  re-syncs the survivors and resumes — the recovered trajectory matches
  the fault-free run exactly (tested bit-identical);
* **bounded-staleness straggler tolerance** (``staleness_bound > 0``): a
  rank whose virtual clock runs ahead of the aggregator's has its
  ``(z, lambda)`` contribution deferred instead of stalling the barrier,
  for at most ``staleness_bound`` consecutive rounds before the aggregator
  stalls to let it catch up.  Synchronous mode (``staleness_bound = 0``,
  the default) preserves exact serial parity — stragglers then cost time,
  never accuracy;
* **divergence guard**: non-finite iterates raise
  :class:`~repro.utils.exceptions.DivergenceError` immediately.

Each solve counts ``fault.injected``, ``rank.failover``,
``resilience.checkpoints``, ``resilience.restores`` and
``resilience.stale_rounds`` on a fresh
:class:`~repro.telemetry.MetricsRegistry`, returned with the result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.backend import get_backend
from repro.core.batch import BatchedLocalSolver
from repro.core.config import ADMMConfig
from repro.core.consensus import global_update
from repro.core.loop import ADMMLoop, IterationStrategy, RewindSignal
from repro.core.residuals import compute_residuals
from repro.core.results import ADMMResult
from repro.decomposition.decomposed import DecomposedOPF
from repro.parallel.assignment import assign_even, rank_partition, reassign_surviving
from repro.parallel.comm import CommModel
from repro.parallel.mpi_sim import SimComm
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.telemetry import NULL_TRACER, TRACK_CLUSTER, MetricsRegistry

#: Virtual seconds the aggregator waits on a silent rank before declaring
#: it dead (charged to the aggregator's clock once per failure event).
FAILURE_DEADLINE_S = 1e-3
#: How far (virtual seconds) a rank's clock may run ahead of the
#: aggregator's before stale mode defers the rank's contribution.
STALE_SLACK_S = 0.0


def rank_update(local_solver, offsets, comps, bx_r, lam_r, rho):
    """One rank's local (15) and dual (19) updates over its contiguous
    components ``comps``, un-batched: a CPU agent's unit of work."""
    z_r = np.empty(bx_r.size)
    pos = 0
    for s in comps:
        n_s = int(offsets[s + 1] - offsets[s])
        v_s = bx_r[pos : pos + n_s] + lam_r[pos : pos + n_s] / rho
        z_r[pos : pos + n_s] = local_solver.solve_one(s, v_s)
        pos += n_s
    return z_r, lam_r + rho * (bx_r - z_r)


@dataclass
class IterationTimeline:
    """Per-iteration simulated timing of a distributed run."""

    total_s: list[float] = field(default_factory=list)
    compute_max_s: list[float] = field(default_factory=list)

    def append(self, total: float, compute_max: float) -> None:
        self.total_s.append(total)
        self.compute_max_s.append(compute_max)

    @property
    def mean_iteration_s(self) -> float:
        return sum(self.total_s) / len(self.total_s) if self.total_s else 0.0

    @property
    def mean_comm_s(self) -> float:
        if not self.total_s:
            return 0.0
        comm = [t - c for t, c in zip(self.total_s, self.compute_max_s)]
        return sum(comm) / len(comm)


@dataclass(frozen=True)
class FailoverEvent:
    """One detected rank failure and the recovery that followed."""

    iteration: int  # iteration whose gather missed the rank
    rank: int
    resumed_from: int  # checkpoint iteration the run rewound to
    survivors: tuple[int, ...]


@dataclass
class DistributedRunResult:
    """Outcome of a simulated-MPI distributed solve."""

    result: ADMMResult
    timeline: IterationTimeline
    n_ranks: int
    simulated_total_s: float
    failovers: list[FailoverEvent]
    stale_rounds: int
    checkpoints_saved: int
    restores: int
    metrics: MetricsRegistry

    @property
    def survivors(self) -> tuple[int, ...]:
        return self.failovers[-1].survivors if self.failovers else tuple(
            range(self.n_ranks)
        )


class DistributedADMMRunner(IterationStrategy):
    """Execute Algorithm 1 through the simulated MPI communicator, with
    checkpoint/restart failover.

    Parameters
    ----------
    dec:
        The decomposed model.
    n_ranks:
        Worker rank count; rank 0 doubles as the aggregator, matching the
        paper's server/agents architecture.  Aggregator failover is out of
        scope — a plan that crashes rank 0 is rejected.
    comm_model:
        Interconnect model for all messages.
    config:
        ADMM settings (the relaxation/balancing extensions are not
        supported here; plain Algorithm 1 only).
    fault_plan:
        Optional seeded :class:`FaultPlan` to inject during the run.
    checkpoint_every:
        Consensus-checkpoint period in iterations (at least 1).
    staleness_bound:
        0 (default) = synchronous barriers, exact serial parity; k > 0 =
        tolerate up to k consecutive skipped rounds per lagging rank.
    tracer:
        Optional :class:`repro.telemetry.Tracer`; when enabled, every
        rank's compute and communication intervals become spans on the
        ``cluster-sim`` track (one lane per rank, virtual-clock time) —
        the raw material of the paper's Fig. 1 rendered in Perfetto — and
        each failure detection becomes a ``resilience.detect_failure`` span.

    The iteration skeleton is :class:`repro.core.loop.ADMMLoop`; this class
    supplies the rank-explicit hooks (fused local+dual update on per-rank
    virtual clocks, aggregator-side residuals, barrier, timeline,
    checkpoints), and failover rewinds the engine via
    :class:`repro.core.loop.RewindSignal`.  The backend is pinned to
    ``numpy64``: the per-rank un-batched path must reproduce the serial
    batched iterates to fp64 round-off, and a failover replay must
    reproduce the fault-free run bit-for-bit.
    """

    algorithm_name = "solver-free ADMM (simulated MPI)"

    def __init__(
        self,
        dec: DecomposedOPF,
        n_ranks: int,
        comm_model: CommModel,
        config: ADMMConfig | None = None,
        fault_plan: FaultPlan | None = None,
        checkpoint_every: int = 25,
        staleness_bound: int = 0,
        tracer=None,
    ):
        self.dec = dec
        self.config = config or ADMMConfig()
        if self.config.relaxation != 1.0 or self.config.residual_balancing:
            raise ValueError("the distributed runner executes plain Algorithm 1 only")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")
        if staleness_bound < 0:
            raise ValueError("staleness_bound must be nonnegative")
        self.plan = fault_plan if fault_plan is not None else FaultPlan()
        if 0 in self.plan.crashed_ranks():
            raise ValueError(
                "rank 0 is the aggregator; aggregator failover is not supported"
            )
        self.backend = get_backend("numpy64")
        self.c = dec.lp.cost
        self.gcols = dec.global_cols
        self.local_solver = BatchedLocalSolver.from_decomposition(dec)
        self.owner = assign_even(dec.n_components, n_ranks)
        self.n_ranks = int(self.owner.max()) + 1
        if self.plan.crashed_ranks() - set(range(self.n_ranks)):
            raise ValueError("fault plan targets ranks beyond the communicator")
        self.comm_model = comm_model
        self.checkpoint_every = int(checkpoint_every)
        self.staleness_bound = int(staleness_bound)
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # ------------------------------------------------------------------
    # Virtual-clock trace helpers
    # ------------------------------------------------------------------
    def _trace_rank(self, name: str, rank: int, start_s: float, end_s: float) -> None:
        if end_s > start_s:
            self.tracer.add_modeled(
                name,
                start_s,
                end_s - start_s,
                track=TRACK_CLUSTER,
                tid=rank,
                cat="cluster",
            )

    def _trace_collective(self, name: str, clocks_before: np.ndarray) -> None:
        for r in range(self.n_ranks):
            self._trace_rank(
                name, r, float(clocks_before[r]), float(self._comm.clocks[r])
            )

    # ------------------------------------------------------------------
    # Engine hooks (repro.core.loop)
    # ------------------------------------------------------------------
    def on_iteration_start(self, iteration, z, lam, rho):
        """Begin the fault-injection round and harvest deferred (stale)
        contributions whose rank has caught up with the aggregator."""
        self._injector.begin_iteration(iteration)
        self._iteration = iteration
        self._t_start = self._comm.elapsed()
        if self._pending:
            z, lam = self._harvest(z, lam)
        return z, lam

    def _harvest(self, z, lam):
        comm, pending, staleness = self._comm, self._pending, self._staleness
        harvest_z: dict[int, np.ndarray] = {}
        harvest_lam: dict[int, np.ndarray] = {}
        for r in sorted(pending):
            if self._injector.crashed(r):
                # The deferred result is void; the rank takes part in this
                # round again, where local_dual_step detects the crash.
                del pending[r]
                continue
            ready = comm.clocks[r] - comm.clocks[0] <= STALE_SLACK_S
            if not ready and staleness[r] >= self.staleness_bound:
                comm.barrier([0, r])  # forced sync: aggregator stalls
                ready = True
            if ready:
                harvest_z[r], harvest_lam[r] = pending.pop(r)
            else:
                staleness[r] += 1
                self._stale_rounds += 1
        if harvest_z:
            z_h = comm.gatherv(0, harvest_z, partial=True)
            lam_h = comm.gatherv(0, harvest_lam, partial=True)
            z = z.copy()
            lam = lam.copy()
            for r in harvest_z:
                if z_h[r] is not None and lam_h[r] is not None:
                    z[self._slices[r]] = z_h[r]
                    lam[self._slices[r]] = lam_h[r]
                staleness[r] = 0
        return z, lam

    def global_step(self, z, lam, rho):
        """Aggregator: global update (13)/(18), charged to rank 0's clock."""
        comm, dec = self._comm, self.dec
        clock0 = float(comm.clocks[0])
        t0 = time.perf_counter()
        x = global_update(
            self.backend, dec.global_cols, dec.counts, dec.lp.cost, z, lam, rho,
            (dec.lp.lb, dec.lp.ub),
        )
        # The consensus gather happens on the aggregator, inside its
        # timed block; the engine's gather() just reads it back.
        self._bx = x[dec.global_cols]
        comm.advance(0, time.perf_counter() - t0)
        if self.tracer:
            self._trace_rank("rank.global_update", 0, clock0, float(comm.clocks[0]))
        return x

    def gather(self, x):
        return self._bx

    def local_dual_step(self, bx_eff, z_prev, lam, rho):
        """Scatter, per-rank local + dual updates, gather — on rank clocks.

        A rank found crashed triggers the failover (:meth:`_failover`),
        which rewinds the engine to the checkpoint iteration.
        """
        comm, injector, tracer = self._comm, self._injector, self.tracer
        pending, slices = self._pending, self._slices

        # Participants: every live rank not still busy with a deferred
        # (stale) contribution.  Scatter their B_s x slices.
        participants = [r for r in self._alive if r not in pending]
        parts: list[np.ndarray | None] = [None] * self.n_ranks
        for r in participants:
            parts[r] = bx_eff[slices[r]]
        clocks_before = comm.clocks.copy()
        received = comm.scatterv(0, parts)
        if tracer:
            self._trace_collective("comm.scatter", clocks_before)

        # Agents: local + dual updates on their own clocks (scaled by any
        # straggler slowdown).  A crashed rank computes nothing; a rank
        # whose scatter message was dropped has nothing to compute from
        # (transient stale round).  An empty plan is falsy and skips the
        # fault lookups.
        crashed: list[int] = []
        compute_times: list[float] = []
        z_parts: dict[int, np.ndarray] = {}
        lam_parts: dict[int, np.ndarray] = {}
        for r in participants:
            if injector and r != 0 and injector.crashed(r):
                crashed.append(r)
                continue
            if received[r] is None:
                self._stale_rounds += 1
                continue
            clock_r = float(comm.clocks[r])
            t0 = time.perf_counter()
            z_r, lam_r = rank_update(
                self.local_solver, self.dec.offsets, self._comps[r], received[r],
                lam[slices[r]], rho,
            )
            dt = time.perf_counter() - t0
            if injector:
                dt *= injector.slowdown(r)
                injector.corrupt(z_r, f"rank:{r}")
            comm.advance(r, dt)
            if tracer:
                self._trace_rank("rank.local_update", r, clock_r, float(comm.clocks[r]))
            compute_times.append(dt)
            z_parts[r] = z_r
            lam_parts[r] = lam_r

        # Stale mode: defer contributions whose rank ran past the
        # aggregator's clock — the aggregator proceeds without waiting
        # and applies them in a later round (bounded staleness).
        if self.staleness_bound > 0:
            for r in list(z_parts):
                if r != 0 and comm.clocks[r] - comm.clocks[0] > STALE_SLACK_S:
                    pending[r] = (z_parts.pop(r), lam_parts.pop(r))
                    self._staleness[r] = 1
                    self._stale_rounds += 1

        # Gather (z, lambda) back to the aggregator; survivors only.
        clocks_before = comm.clocks.copy()
        z_back = comm.gatherv(0, z_parts, partial=True)
        lam_back = comm.gatherv(0, lam_parts, partial=True)
        if tracer:
            self._trace_collective("comm.gather", clocks_before)

        if crashed:
            raise self._failover(crashed)

        # Apply received updates; skipped/stale slices stay put.
        z = z_prev.copy()
        lam = lam.copy()
        for r in z_parts:
            if z_back[r] is None or lam_back[r] is None:
                self._stale_rounds += 1  # gather lost on the wire
                continue
            z[slices[r]] = z_back[r]
            lam[slices[r]] = lam_back[r]
        self._compute_max = max(compute_times, default=0.0)
        return z, lam

    def _failover(self, crashed: list[int]) -> RewindSignal:
        """Detect, recover, re-sync — then hand the engine a rewind."""
        comm, alive = self._comm, self._alive

        # Failure detection: the aggregator's gather deadline expires
        # once per event, then recovery runs.
        clock0 = float(comm.clocks[0])
        comm.advance(0, FAILURE_DEADLINE_S)
        if self.tracer:
            self.tracer.add_modeled(
                "resilience.detect_failure",
                clock0,
                FAILURE_DEADLINE_S,
                track=TRACK_CLUSTER,
                tid=0,
                cat="resilience",
            )
        for r in crashed:
            alive.remove(r)
        ckpt = self._ckpts.restore()
        z = ckpt.z.copy()
        lam = ckpt.lam.copy()
        owner = reassign_surviving(self.dec.n_components, alive)
        self._comps, self._slices = rank_partition(self.dec.offsets, owner, self.n_ranks)
        self._failovers.extend(
            FailoverEvent(
                iteration=self._iteration,
                rank=r,
                resumed_from=ckpt.iteration,
                survivors=tuple(alive),
            )
            for r in crashed
        )
        # Re-sync survivors from the checkpoint (state re-scatter).
        resync: list[np.ndarray | None] = [None] * self.n_ranks
        for r in alive:
            if r != 0:
                resync[r] = np.concatenate([z[self._slices[r]], lam[self._slices[r]]])
        comm.scatterv(0, resync)
        comm.barrier(alive)
        self._staleness[:] = 0
        self._pending.clear()  # deferred pre-crash contributions are void
        return RewindSignal(ckpt.iteration, z, lam)

    def residuals(self, iteration, x, bx, z, z_prev, lam, rho):
        """Aggregator: residuals and termination, then (synchronous mode)
        the survivors' iteration barrier."""
        comm = self._comm
        clock0 = float(comm.clocks[0])
        t0 = time.perf_counter()
        res = compute_residuals(bx, z, z_prev, lam, rho, self.config.eps_rel)
        comm.advance(0, time.perf_counter() - t0)
        if self.tracer:
            self._trace_rank("rank.residuals", 0, clock0, float(comm.clocks[0]))
        if self.staleness_bound == 0:
            comm.barrier(self._alive)
        return res

    def after_residuals(self, iteration, res):
        self._timeline.append(self._comm.elapsed() - self._t_start, self._compute_max)

    def on_iteration_continue(self, iteration, z, lam, rho):
        self._ckpts.maybe_save(iteration, z, lam, rho)

    def final_timers(self, timers: dict) -> dict:
        return {"simulated_total": self._comm.elapsed()}

    def final_algorithm_name(self) -> str:
        return (
            f"solver-free ADMM (simulated MPI, {self.n_ranks} ranks, "
            f"{len(self._failovers)} failovers)"
        )

    # ------------------------------------------------------------------
    def solve(self, max_iter: int | None = None) -> DistributedRunResult:
        """Run to the (16) criterion, failing over on crashes; returns the
        result, the simulated timeline and the recovery record.

        Raises
        ------
        DivergenceError
            If ``config.divergence_guard`` and an iterate goes non-finite
            (e.g. under injected NaN corruption with no surviving replica).
        """
        cfg = self.config
        budget = cfg.max_iter if max_iter is None else max_iter
        dec = self.dec
        metrics = MetricsRegistry()
        self._injector = FaultInjector(self.plan, metrics)
        # An empty plan leaves the wire alone: SimComm skips the per-message
        # fault lookup.
        self._comm = comm = SimComm(
            self.n_ranks, self.comm_model, injector=self._injector or None
        )
        self._comps, self._slices = rank_partition(dec.offsets, self.owner, self.n_ranks)
        self._alive = list(range(self.n_ranks))
        self._pending: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._staleness = np.zeros(self.n_ranks, dtype=np.int64)
        self._stale_rounds = 0
        self._failovers: list[FailoverEvent] = []
        self._timeline = IterationTimeline()
        self._ckpts = ckpts = CheckpointStore(every=self.checkpoint_every)

        x = dec.lp.initial_point()
        z = x[dec.global_cols].copy()
        lam = np.zeros(dec.n_local)
        ckpts.save(0, z, lam, cfg.rho)
        # Virtual clocks replace wall timers; rank spans replace phase spans
        # (the loop gets no tracer).
        loop = ADMMLoop(self, cfg, backend=self.backend, record_timers=False)
        result = loop.result(loop.run(x, z, lam, budget=budget))
        metrics.counter("rank.failover").inc(len(self._failovers))
        metrics.counter("resilience.checkpoints").inc(ckpts.saves)
        metrics.counter("resilience.restores").inc(ckpts.restores)
        metrics.counter("resilience.stale_rounds").inc(self._stale_rounds)
        return DistributedRunResult(
            result=result,
            timeline=self._timeline,
            n_ranks=self.n_ranks,
            simulated_total_s=comm.elapsed(),
            failovers=self._failovers,
            stale_rounds=self._stale_rounds,
            checkpoints_saved=ckpts.saves,
            restores=ckpts.restores,
            metrics=metrics,
        )
