"""Fault-tolerant distributed execution of Algorithm 1.

Extends the rank-explicit protocol of
:class:`~repro.parallel.runner.DistributedADMMRunner` with the recovery
machinery a production deployment needs:

* **periodic consensus checkpoints** of ``(z, lambda, iteration)`` — one
  ADMM iteration is a pure function of that state, so replay from a
  checkpoint is bit-identical;
* **fail-stop detection and failover**: a crashed rank (injected via
  :class:`~repro.resilience.faults.FaultPlan` or emerging from dropped
  messages) misses the gather; the aggregator charges a virtual-clock
  detection deadline, removes the rank, re-spreads *all* components
  near-evenly over the survivors (``reassign_surviving`` →
  ``assign_even``), restores the latest checkpoint, re-syncs the
  survivors, and resumes — the post-recovery iterate trajectory matches
  the serial :class:`~repro.core.solver_free.SolverFreeADMM` exactly
  (tested bit-identical);
* **bounded-staleness straggler tolerance** (``staleness_bound > 0``): a
  rank whose virtual clock has fallen behind the aggregator skips rounds
  (its ``(z, lambda)`` slice is simply reused) instead of stalling the
  barrier, for at most ``staleness_bound`` consecutive rounds before the
  aggregator stalls to let it catch up.  Synchronous mode
  (``staleness_bound = 0``, the default) preserves exact serial parity —
  stragglers then cost time, never accuracy;
* **divergence guard**: non-finite iterates raise
  :class:`~repro.utils.exceptions.DivergenceError` immediately.

Counters (``fault.injected``, ``rank.failover``, ``resilience.checkpoints``,
``resilience.restores``, ``resilience.stale_rounds``) land on the runner's
:class:`~repro.telemetry.MetricsRegistry`, whose snapshot is the telemetry
summary the chaos example prints.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.backend import get_backend
from repro.core.batch import BatchedLocalSolver
from repro.core.config import ADMMConfig
from repro.core.consensus import global_update
from repro.core.loop import ADMMLoop, IterationStrategy, RewindSignal, truncate_history
from repro.core.residuals import compute_residuals
from repro.core.results import ADMMResult, IterationHistory
from repro.decomposition.decomposed import DecomposedOPF
from repro.parallel.assignment import assign_even, rank_partition, reassign_surviving
from repro.parallel.comm import CommModel
from repro.parallel.mpi_sim import SimComm
from repro.parallel.runner import IterationTimeline, rank_update
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.telemetry import TRACK_CLUSTER, NULL_TRACER
from repro.telemetry.metrics import MetricsRegistry


@dataclass(frozen=True)
class FailoverEvent:
    """One detected rank failure and the recovery that followed."""

    iteration: int  # iteration whose gather missed the rank
    rank: int
    resumed_from: int  # checkpoint iteration the run rewound to
    survivors: tuple[int, ...]


@dataclass
class FaultTolerantRunResult:
    """Outcome of a fault-tolerant distributed solve."""

    result: ADMMResult
    timeline: IterationTimeline
    n_ranks: int
    simulated_total_s: float
    failovers: list[FailoverEvent] = field(default_factory=list)
    stale_rounds: int = 0
    checkpoints_saved: int = 0
    restores: int = 0
    metrics: MetricsRegistry | None = None

    @property
    def survivors(self) -> tuple[int, ...]:
        return self.failovers[-1].survivors if self.failovers else tuple(
            range(self.n_ranks)
        )


#: Backwards-compatible alias; the canonical helper lives with the engine.
_truncate_history = truncate_history


class FaultTolerantADMMRunner(IterationStrategy):
    """Algorithm 1 over simulated MPI with checkpoint/restart failover.

    Parameters
    ----------
    dec:
        The decomposed model.
    n_ranks:
        Worker rank count; rank 0 doubles as the aggregator.  Aggregator
        failover is out of scope — a plan that crashes rank 0 is rejected.
    comm_model:
        Interconnect model for all messages.
    config:
        ADMM settings (plain Algorithm 1 only, like the plain runner).
    fault_plan:
        Optional seeded :class:`FaultPlan` to inject during the run.
    checkpoint_every:
        Consensus-checkpoint period in iterations.
    failure_deadline_s:
        Virtual-clock seconds the aggregator waits on a silent rank before
        declaring it dead (charged to the aggregator's clock per event).
    staleness_bound:
        0 (default) = synchronous barriers, exact serial parity; k > 0 =
        tolerate up to k consecutive skipped rounds per lagging rank.
    stale_slack_s:
        How far (virtual seconds) a rank's clock may trail the
        aggregator's before it is considered lagging in stale mode.
    metrics, tracer:
        Optional telemetry sinks (fresh ones are created if omitted).

    The iteration skeleton is :class:`repro.core.loop.ADMMLoop`; failover
    rewinds the engine via :class:`repro.core.loop.RewindSignal` (restore
    the checkpointed consensus state, truncate the history, reset the
    iteration counter).  The backend is pinned to ``numpy64`` for exact
    serial replay parity, like the plain distributed runner.
    """

    algorithm_name = "solver-free ADMM (fault-tolerant simulated MPI)"
    use_relaxation = False
    supports_balancing = False

    def __init__(
        self,
        dec: DecomposedOPF,
        n_ranks: int,
        comm_model: CommModel,
        config: ADMMConfig | None = None,
        fault_plan: FaultPlan | None = None,
        checkpoint_every: int = 25,
        failure_deadline_s: float = 1e-3,
        staleness_bound: int = 0,
        stale_slack_s: float = 0.0,
        metrics: MetricsRegistry | None = None,
        tracer=None,
    ):
        self.dec = dec
        self.config = config or ADMMConfig()
        if self.config.relaxation != 1.0 or self.config.residual_balancing:
            raise ValueError("the fault-tolerant runner executes plain Algorithm 1 only")
        if staleness_bound < 0:
            raise ValueError("staleness_bound must be nonnegative")
        if failure_deadline_s < 0:
            raise ValueError("failure_deadline_s must be nonnegative")
        self.plan = fault_plan if fault_plan is not None else FaultPlan()
        if 0 in self.plan.crashed_ranks():
            raise ValueError(
                "rank 0 is the aggregator; aggregator failover is not supported"
            )
        self.backend = get_backend("numpy64")
        self.c = dec.lp.cost
        self.gcols = dec.global_cols
        self.local_solver = BatchedLocalSolver.from_decomposition(dec)
        owner = assign_even(dec.n_components, n_ranks)
        self.n_ranks = int(owner.max()) + 1
        if self.plan.crashed_ranks() - set(range(self.n_ranks)):
            raise ValueError("fault plan targets ranks beyond the communicator")
        self.comm_model = comm_model
        self.checkpoint_every = int(checkpoint_every)
        self.failure_deadline_s = float(failure_deadline_s)
        self.staleness_bound = int(staleness_bound)
        self.stale_slack_s = float(stale_slack_s)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._initial_owner = owner

    # ------------------------------------------------------------------
    def _compute_rank(
        self, comm, r, comps_r, bx_r, lam_r, rho, injector
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """One rank's local + dual updates, charged to its virtual clock
        (scaled by any active straggler slowdown)."""
        t0 = time.perf_counter()
        z_r, lam_out = rank_update(
            self.local_solver, self.dec.offsets, comps_r, bx_r, lam_r, rho
        )
        dt = (time.perf_counter() - t0) * injector.slowdown(r)
        comm.advance(r, dt)
        injector.corrupt(z_r, f"rank:{r}")
        return z_r, lam_out, dt

    # ------------------------------------------------------------------
    # Engine hooks (repro.core.loop)
    # ------------------------------------------------------------------
    def on_iteration_start(self, iteration, z, lam, rho):
        """Begin the fault-injection round and harvest deferred (stale)
        contributions whose rank has caught up to the aggregator."""
        st = self._st
        comm = st["comm"]
        injector = st["injector"]
        injector.begin_iteration(iteration)
        st["current_iteration"] = iteration
        st["t_start"] = comm.elapsed()
        st["crashed_now"] = []
        pending = st["pending"]
        staleness = st["staleness"]
        slices = st["slices"]
        if pending:
            harvest_z: dict[int, np.ndarray] = {}
            harvest_lam: dict[int, np.ndarray] = {}
            for r in sorted(pending):
                if injector.crashed(r):
                    pending.pop(r)
                    st["crashed_now"].append(r)
                    continue
                ready = comm.clocks[r] - comm.clocks[0] <= self.stale_slack_s
                if not ready and staleness[r] >= self.staleness_bound:
                    comm.barrier([0, r])  # forced sync: aggregator stalls
                    ready = True
                if ready:
                    z_r, lam_r = pending.pop(r)
                    harvest_z[r] = z_r
                    harvest_lam[r] = lam_r
                else:
                    staleness[r] += 1
                    st["stale_rounds"] += 1
                    st["stale_counter"].inc()
            if harvest_z:
                z_h = comm.gatherv(0, harvest_z, partial=True)
                lam_h = comm.gatherv(0, harvest_lam, partial=True)
                z = z.copy()
                lam = lam.copy()
                for r in harvest_z:
                    if z_h[r] is not None and lam_h[r] is not None:
                        z[slices[r]] = z_h[r]
                        lam[slices[r]] = lam_h[r]
                    staleness[r] = 0
        return z, lam

    def global_step(self, z, lam, rho):
        """Aggregator: global update (13)/(18) on rank 0's clock."""
        st = self._st
        comm = st["comm"]
        dec = self.dec
        t0 = time.perf_counter()
        x = global_update(
            self.backend, dec.global_cols, dec.counts, dec.lp.cost, z, lam, rho,
            (dec.lp.lb, dec.lp.ub),
        )
        self._bx = x[dec.global_cols]
        comm.advance(0, time.perf_counter() - t0)
        return x

    def gather(self, x):
        return self._bx

    def local_dual_step(self, bx_eff, z_prev, lam, rho):
        """Scatter / per-rank compute / gather with crash detection.

        A detected crash runs the full failover (remove the rank,
        restore the latest checkpoint, re-spread components over the
        survivors, re-sync their state) and then rewinds the engine to
        the checkpoint iteration via :class:`RewindSignal`.
        """
        st = self._st
        comm = st["comm"]
        injector = st["injector"]
        crashed_now = st["crashed_now"]
        pending = st["pending"]
        staleness = st["staleness"]
        comps, slices = st["comps"], st["slices"]
        alive = st["alive"]
        z = z_prev

        # Participation: every live rank that is not still busy with a
        # deferred (stale) contribution.
        participants = [r for r in alive if r not in pending]

        # Scatter each participant's B_s x slice (server -> agents).
        parts: list[np.ndarray | None] = [None] * self.n_ranks
        for r in participants:
            parts[r] = bx_eff[slices[r]]
        received = comm.scatterv(0, parts)

        # Agents: local + dual updates on their own clocks.  A crashed
        # rank computes nothing; a rank whose scatter message was
        # dropped has nothing to compute from (transient stale round).
        compute_times = []
        z_parts: dict[int, np.ndarray] = {}
        lam_parts: dict[int, np.ndarray] = {}
        for r in participants:
            if r != 0 and injector.crashed(r):
                crashed_now.append(r)
                continue
            if received[r] is None:
                st["stale_rounds"] += 1
                st["stale_counter"].inc()
                continue
            z_r, lam_r, dt = self._compute_rank(
                comm, r, comps[r], received[r], lam[slices[r]], rho, injector
            )
            compute_times.append(dt)
            z_parts[r] = z_r
            lam_parts[r] = lam_r

        # Stale mode: defer contributions whose rank ran past the
        # aggregator's clock — the aggregator proceeds without waiting
        # and applies them in a later round (bounded staleness).
        if self.staleness_bound > 0:
            for r in list(z_parts):
                if r != 0 and comm.clocks[r] - comm.clocks[0] > self.stale_slack_s:
                    pending[r] = (z_parts.pop(r), lam_parts.pop(r))
                    staleness[r] = 1
                    st["stale_rounds"] += 1
                    st["stale_counter"].inc()

        # Gather (z, lambda) back; survivors only.
        z_back = comm.gatherv(0, z_parts, partial=True)
        lam_back = comm.gatherv(0, lam_parts, partial=True)

        if crashed_now:
            raise self._failover(crashed_now, z, lam, rho)

        # Apply received updates; skipped/stale slices stay put.
        z = z.copy()
        lam = lam.copy()
        for r in z_parts:
            if z_back[r] is None or lam_back[r] is None:
                st["stale_rounds"] += 1  # gather lost on the wire
                st["stale_counter"].inc()
                continue
            z[slices[r]] = z_back[r]
            lam[slices[r]] = lam_back[r]
        st["compute_times"] = compute_times
        return z, lam

    def _failover(self, crashed_now, z, lam, rho) -> RewindSignal:
        """Detect, recover, re-sync — then hand the engine a rewind."""
        st = self._st
        comm = st["comm"]
        alive = st["alive"]
        tracer = self.tracer

        # Failure detection: the aggregator's gather deadline expires
        # once per event, then recovery runs.
        clock0 = float(comm.clocks[0])
        comm.advance(0, self.failure_deadline_s)
        if tracer:
            tracer.add_modeled(
                "resilience.detect_failure",
                clock0,
                self.failure_deadline_s,
                track=TRACK_CLUSTER,
                tid=0,
                cat="resilience",
            )
        for r in crashed_now:
            alive.remove(r)
        st["failover_counter"].inc(len(crashed_now))
        ckpt = st["ckpts"].restore()
        st["restore_counter"].inc()
        z = ckpt.z.copy()
        lam = ckpt.lam.copy()
        owner = reassign_surviving(self.dec.n_components, alive)
        st["comps"], st["slices"] = rank_partition(
            self.dec.offsets, owner, self.n_ranks
        )
        slices = st["slices"]
        for r in crashed_now:
            st["failovers"].append(
                FailoverEvent(
                    iteration=st["current_iteration"],
                    rank=r,
                    resumed_from=ckpt.iteration,
                    survivors=tuple(alive),
                )
            )
        # Re-sync survivors from the checkpoint (state re-scatter).
        resync: list[np.ndarray | None] = [None] * self.n_ranks
        for r in alive:
            if r != 0:
                resync[r] = np.concatenate([z[slices[r]], lam[slices[r]]])
        comm.scatterv(0, resync)
        comm.barrier(alive)
        st["staleness"][:] = 0
        st["pending"].clear()  # deferred pre-crash contributions are void
        return RewindSignal(ckpt.iteration, z, lam)

    def residuals(self, iteration, x, bx, z, z_prev, lam, rho):
        """Aggregator: residuals and termination; synchronous barrier."""
        st = self._st
        comm = st["comm"]
        t0 = time.perf_counter()
        res = compute_residuals(bx, z, z_prev, lam, rho, self.config.eps_rel)
        comm.advance(0, time.perf_counter() - t0)
        if self.staleness_bound == 0:
            comm.barrier(st["alive"])
        return res

    def after_residuals(self, iteration, res):
        st = self._st
        compute_times = st.get("compute_times") or []
        st["timeline"].append(
            st["comm"].elapsed() - st["t_start"],
            float(max(compute_times)) if compute_times else 0.0,
        )

    def on_iteration_continue(self, iteration, z, lam, rho):
        st = self._st
        if st["ckpts"].maybe_save(iteration, z, lam, rho):
            st["ckpt_counter"].inc()

    def final_timers(self, timers: dict) -> dict:
        return {"simulated_total": self._st["comm"].elapsed()}

    def final_algorithm_name(self) -> str:
        return (
            f"solver-free ADMM (fault-tolerant simulated MPI, "
            f"{self.n_ranks} ranks, {len(self._st['failovers'])} failovers)"
        )

    # ------------------------------------------------------------------
    def solve(self, max_iter: int | None = None) -> FaultTolerantRunResult:
        """Run to the (16) criterion with failover; returns result + events.

        Raises
        ------
        DivergenceError
            If ``config.divergence_guard`` and an iterate goes non-finite
            (e.g. under injected NaN corruption with no surviving replica).
        """
        cfg = self.config
        budget = cfg.max_iter if max_iter is None else max_iter
        dec = self.dec
        injector = FaultInjector(self.plan, self.metrics)
        comm = SimComm(self.n_ranks, self.comm_model, injector=injector)
        comps, slices = rank_partition(
            dec.offsets, self._initial_owner, self.n_ranks
        )
        ckpts = CheckpointStore(every=self.checkpoint_every)

        x = dec.lp.initial_point()
        z = x[dec.global_cols].copy()
        lam = np.zeros(dec.n_local)
        ckpts.save(0, z, lam, cfg.rho)

        # Per-solve mutable state shared across the engine hooks.
        self._st = st = {
            "comm": comm,
            "injector": injector,
            "alive": list(range(self.n_ranks)),
            "comps": comps,
            "slices": slices,
            "pending": {},
            "staleness": np.zeros(self.n_ranks, dtype=np.int64),
            "timeline": IterationTimeline(),
            "ckpts": ckpts,
            "failovers": [],
            "stale_rounds": 0,
            "compute_times": [],
            "t_start": 0.0,
            "crashed_now": [],
            "current_iteration": 0,
            "failover_counter": self.metrics.counter("rank.failover"),
            "stale_counter": self.metrics.counter("resilience.stale_rounds"),
            "ckpt_counter": self.metrics.counter("resilience.checkpoints"),
            "restore_counter": self.metrics.counter("resilience.restores"),
        }
        st["ckpt_counter"].inc()

        loop = ADMMLoop(
            self,
            cfg,
            backend=self.backend,
            record_timers=False,
            phase_spans=False,
            watch_stall=False,
        )
        outcome = loop.run(x, z, lam, budget=budget)
        result = loop.result(outcome)
        return FaultTolerantRunResult(
            result=result,
            timeline=st["timeline"],
            n_ranks=self.n_ranks,
            simulated_total_s=comm.elapsed(),
            failovers=st["failovers"],
            stale_rounds=st["stale_rounds"],
            checkpoints_saved=ckpts.saves,
            restores=ckpts.restores,
            metrics=self.metrics,
        )
