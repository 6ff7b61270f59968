"""The one ADMM iteration engine every solver variant runs on.

Historically each variant — solver-free, solver-based benchmark,
compressed-upload, differentially private, conic, the two simulated-MPI
runners and the serving engine's stacked batch solve — re-implemented the
same iteration skeleton:

    global update -> gather B x -> (over-relax) -> local update
        -> dual update -> residuals (16) -> guard / history / callback
        -> termination -> rho balancing

:class:`ADMMLoop` owns that skeleton exactly once.  Variants are thin
:class:`IterationStrategy` objects that supply the update rules (and
optional hooks for per-iteration bookkeeping such as virtual-clock
timelines or consensus checkpoints); the engine owns control flow,
divergence guarding with best-so-far capture, phase timing, telemetry
spans, iteration history, residual balancing, and the mixed-precision
stall watch that triggers the fp64 refinement fallback.

All array work flows through a :class:`repro.backend.Backend`, so the
same engine runs fp64 NumPy (bit-identical to the historical loops),
fp32 with fp64 residual accumulation, or CuPy.  Each run iterates in its
own :class:`Workspace`, so an iteration allocates almost nothing.

Who may hold which array, and for how long:

* a callback gets the live ``x``, ``z`` and ``lam``, valid until the next
  iteration returns (the one after reads them, the one after that
  overwrites them);
* with a callback installed, the divergence guard copies the state it
  keeps, since the callback may write into the live arrays; without one
  it keeps references;
* a :class:`LoopOutcome`'s arrays belong to the finished run: the next
  run allocates a workspace of its own.
"""

from __future__ import annotations

import contextlib
import time

from repro.backend import Backend, resolve_backend
from repro.core.config import ADMMConfig
from repro.core.residuals import compute_residuals
from repro.core.results import ADMMResult, IterationHistory
from repro.core.rho import ResidualBalancer
from repro.telemetry import NULL_TRACER
from repro.utils.exceptions import ConvergenceError, DivergenceError


def _phase_timers(timed: int, *totals: float) -> dict:
    """The ``timers`` of a run: each phase's wall seconds summed over
    ``timed`` iterations (empty when no iteration was timed)."""
    return dict(zip(("global", "local", "dual", "residual"), totals)) if timed else {}


@contextlib.contextmanager
def _bound(strategy, workspace):
    """Bind ``workspace`` to ``strategy`` for the duration of one run."""
    strategy.bind_workspace(workspace)
    try:
        yield workspace
    finally:
        strategy.bind_workspace(None)


def truncate_history(history: IterationHistory | None, n: int) -> None:
    """Drop entries beyond iteration ``n`` (checkpoint rewind support)."""
    if history is None:
        return
    for name in ("pres", "dres", "eps_prim", "eps_dual", "rho"):
        del getattr(history, name)[n:]


class Workspace:
    """The arrays one :meth:`ADMMLoop.run` iterates in, in the compute dtype.

    Two sets of ``x``, ``bx`` (``B x``), ``z`` and ``lam`` alternate: the
    attributes name the set the current iteration writes, and :meth:`flip`
    (called by the loop as each iteration starts) swaps in the other.  An
    iteration's inputs are the previous iteration's outputs, so they, and
    with them ``z_prev`` and the divergence guard's best state, stay
    intact until the iteration after.

    The scratch vectors serve every iteration, and two of them carry a
    value from one stage to the next:

    * ``lam_rho`` - ``lam / rho``, left by the global step for the local
      step;
    * ``zl`` - ``z - lam / rho``, the global step's scatter input;
    * ``diff`` - ``B x - z``, left by the dual step for the primal
      residual;
    * ``step`` - ``rho (B x - z)``, then ``z - z_prev`` for the dual
      residual.

    Strategies that keep their own arrays (the simulated-MPI runner)
    ignore it.
    """

    __slots__ = ("x", "bx", "z", "lam", "lam_rho", "zl", "diff", "step", "_idle")

    def __init__(self, backend: Backend, n: int, n_local: int):
        def iterate_set():
            return (backend.empty(n), backend.empty(n_local),
                    backend.empty(n_local), backend.empty(n_local))

        self.x, self.bx, self.z, self.lam = iterate_set()
        self._idle = iterate_set()
        self.lam_rho, self.zl, self.diff, self.step = (
            backend.empty(n_local) for _ in range(4)
        )

    def flip(self) -> None:
        """Make the idle set the one the next iteration writes."""
        idle = self._idle
        self._idle = (self.x, self.bx, self.z, self.lam)
        self.x, self.bx, self.z, self.lam = idle


class RewindSignal(Exception):
    """Raised from a strategy update hook to rewind the loop.

    Carries the iteration number and the consensus state ``(z, lam)`` to
    resume from; the engine truncates the history accordingly and
    continues.  Used by the simulated-MPI runner to replay from the last
    checkpoint after a failover.
    """

    def __init__(self, iteration: int, z, lam):
        super().__init__(f"rewind to iteration {iteration}")
        self.iteration = int(iteration)
        self.z = z
        self.lam = lam


class LoopOutcome:
    """Raw outcome of :meth:`ADMMLoop.run` (pre-:class:`ADMMResult`)."""

    __slots__ = ("x", "z", "lam", "res", "iterations", "converged", "stalled",
                 "history", "timers")

    def __init__(self, x, z, lam, res, iterations, converged, stalled,
                 history, timers):
        self.x = x
        self.z = z
        self.lam = lam
        self.res = res
        self.iterations = iterations
        self.converged = converged
        self.stalled = stalled
        self.history = history
        self.timers = timers


class IterationStrategy:
    """Update rules + hooks one ADMM variant plugs into :class:`ADMMLoop`.

    Concrete strategies must provide :meth:`global_step` and either
    :meth:`local_step` plus :meth:`dual_step` or the fused
    :attr:`local_dual_step`, and set the attributes ``algorithm_name``,
    ``gcols`` (the consensus gather index), ``c`` (the cost vector) and
    ``backend``.  The hooks may write their outputs into the run's
    :attr:`workspace`, never into their inputs.
    """

    algorithm_name = "ADMM"
    #: Honor ``config.relaxation`` (the benchmark baseline never did).
    use_relaxation = True
    #: Honor ``config.residual_balancing`` (fixed-rho variants opt out).
    supports_balancing = True
    #: Set to a callable to replace the engine's residual computation.
    residuals = None
    #: Set to a callable ``(bx_eff, z_prev, lam, rho) -> (z, lam)`` to fuse
    #: the local and dual updates (rank-explicit runners do both per rank).
    local_dual_step = None

    backend: Backend
    gcols = None
    c = None
    #: The decomposed problem; a result reports the primal violation of
    #: its ``lp`` when it has one.
    dec = None
    #: The :class:`Workspace` of the run in progress (``None`` between
    #: runs): the update hooks write their outputs into it.
    workspace: Workspace | None = None

    # -- update rules ---------------------------------------------------
    def global_step(self, z, lam, rho):
        raise NotImplementedError

    def gather(self, x):
        """``B x`` — the consensus gather, into the workspace."""
        return self.backend.take(x, self.gcols, out=self.workspace.bx)

    def local_step(self, bx_eff, z_prev, lam, rho):
        raise NotImplementedError

    def dual_step(self, lam, bx_eff, z, rho):
        """Eq. (19); must leave ``bx_eff - z`` in ``workspace.diff``."""
        raise NotImplementedError

    def bind_workspace(self, workspace: Workspace | None) -> None:
        """Called by :meth:`ADMMLoop.run` as a run starts and ends."""
        self.workspace = workspace

    def objective(self, x) -> float:
        """Cost of a (possibly fp32 / device) solution, fp64-accumulated."""
        return self.backend.dot(self.c, x)

    # -- hooks ----------------------------------------------------------
    def span_args(self) -> dict:
        """Extra attributes for the ``admm.solve`` telemetry span."""
        return {}

    def on_iteration_start(self, iteration: int, z, lam, rho):
        """Called before the global update; may transform ``(z, lam)``."""
        return z, lam

    def after_residuals(self, iteration: int, res) -> None:
        """Called after the residual test (timelines, barriers)."""

    def on_iteration_continue(self, iteration: int, z, lam, rho) -> None:
        """Called when the loop continues past ``iteration`` (checkpoints)."""

    def final_timers(self, timers: dict) -> dict:
        """Map the engine's phase timers to the result's ``timers`` dict."""
        return timers

    def final_algorithm_name(self) -> str:
        return self.algorithm_name


class ADMMLoop:
    """The shared iteration engine.

    Every :meth:`run` allocates a :class:`Workspace` through the backend,
    binds it to the strategy for the run's duration, and iterates in it:
    iteration k writes one of its two iterate sets and reads the other.

    Parameters
    ----------
    strategy:
        The variant's update rules and hooks.
    config:
        ADMM hyper-parameters.
    backend:
        Array-execution backend; defaults to the strategy's.
    tracer:
        Optional telemetry tracer (``admm.solve`` + per-phase spans).
    record_timers:
        Accumulate wall time per phase (serial solvers do; the simulated
        runners charge virtual clocks instead).
    phase_spans:
        Emit ``admm.{global,local,dual,residual}`` spans when the tracer
        is enabled (rank-explicit runners emit per-rank spans instead).
    watch_stall:
        Arm the mixed-precision stall watch when the backend's policy has
        refinement enabled; a stalled run breaks with ``stalled=True`` so
        the caller can continue under an fp64 backend.
    """

    def __init__(
        self,
        strategy: IterationStrategy,
        config: ADMMConfig,
        *,
        backend: Backend | None = None,
        tracer=None,
        record_timers: bool = True,
        phase_spans: bool = True,
        record_history: bool | None = None,
        watch_stall: bool = True,
        balancer: ResidualBalancer | None = None,
    ):
        self.strategy = strategy
        self.config = config
        self.backend = backend if backend is not None else resolve_backend(
            getattr(strategy, "backend", None)
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.record_timers = record_timers
        self.phase_spans = phase_spans
        self.record_history = (
            config.record_history if record_history is None else record_history
        )
        self.watch_stall = watch_stall
        self.balancer = balancer

    # ------------------------------------------------------------------
    def _raise_divergence(self, iteration, res, best, history, timers) -> None:
        """Build the best-so-far result and raise :class:`DivergenceError`.

        ``best`` is ``(iteration, x, z, lam, res)`` from the last iteration
        whose state was entirely finite, or ``None``.
        """
        strat = self.strategy
        b = self.backend
        result = None
        if best is not None:
            b_iter, b_x, b_z, b_lam, b_res = best
            result = ADMMResult(
                x=b.to_numpy(b_x),
                z=b.to_numpy(b_z),
                lam=b.to_numpy(b_lam),
                objective=strat.objective(b_x),
                iterations=b_iter,
                converged=False,
                pres=b_res.pres,
                dres=b_res.dres,
                history=history,
                timers=strat.final_timers(timers),
                algorithm=strat.final_algorithm_name(),
            )
        raise DivergenceError(
            f"{strat.algorithm_name}: non-finite iterate at iteration {iteration} "
            f"(pres {res.pres}, dres {res.dres}); "
            f"best finite state is iteration {best[0] if best else 0}",
            iteration=iteration,
            pres=res.pres,
            dres=res.dres,
            result=result,
        )

    # ------------------------------------------------------------------
    def run(self, x, z, lam, *, budget: int | None = None,
            rho: float | None = None, callback=None) -> LoopOutcome:
        """Iterate until (16) holds, the budget runs out, a non-finite
        iterate trips the guard, or the mixed-precision stall watch fires.
        """
        cfg = self.config
        strat = self.strategy
        budget = cfg.max_iter if budget is None else budget
        rho = cfg.rho if rho is None else rho
        relax = cfg.relaxation if strat.use_relaxation else 1.0
        history = IterationHistory() if self.record_history else None
        tracer = self.tracer
        balancing = (
            cfg.residual_balancing
            and strat.supports_balancing
            and self.balancer is not None
        )
        policy = self.backend.policy
        stall_watch = self.watch_stall and policy.refine
        stall_best = None  # running best of the stall metric
        stall_best_at_check = None  # its value at the previous check
        guard = cfg.divergence_guard
        spans = self.phase_spans
        # The strategy's hooks and the residual function are looked up once
        # per run, not per iteration, and never earlier: instrumentation may
        # wrap them between runs.
        on_iteration_start = strat.on_iteration_start
        global_step = strat.global_step
        gather = strat.gather
        local_dual_step = strat.local_dual_step
        local_step = strat.local_step
        dual_step = strat.dual_step
        strategy_residuals = strat.residuals
        after_residuals = strat.after_residuals
        on_iteration_continue = strat.on_iteration_continue
        compute, eps_rel, backend = compute_residuals, cfg.eps_rel, self.backend
        if history is not None:
            keep_pres, keep_dres = history.pres.append, history.dres.append
            keep_eps_prim = history.eps_prim.append
            keep_eps_dual = history.eps_dual.append
            keep_rho = history.rho.append
        rho_f = float(rho)
        # perf_counter stamps feed the phase timers and/or the phase spans;
        # the timers add up in locals and become the result's totals once.
        record = self.record_timers
        trace_phases = bool(spans and tracer)
        stamp = record or trace_phases
        clock = time.perf_counter
        t_global = t_local = t_dual = t_residual = 0.0
        timed = 0
        res = None
        iteration = 0
        best = None  # (iteration, x, z, lam, res) of the last finite state
        stalled = False
        with (
            _bound(strat, Workspace(backend, x.size, z.size)) as ws,
            tracer.span(
                "admm.solve",
                algorithm=strat.algorithm_name,
                backend=self.backend.name,
                precision=policy.name,
                **strat.span_args(),
            )
            if spans
            else contextlib.nullcontext(),
        ):
            flip = ws.flip
            # The primal residual reuses the dual step's B x - z, unless
            # over-relaxation fed that step B x_eff or a fused step ran.
            pres_diff = ws.diff if relax == 1.0 and local_dual_step is None else None
            while iteration < budget:
                iteration += 1
                flip()
                z, lam = on_iteration_start(iteration, z, lam, rho)
                try:
                    t0 = clock() if stamp else 0.0
                    x = global_step(z, lam, rho)
                    t1 = clock() if stamp else 0.0
                    bx = gather(x)
                    z_prev = z
                    # Over-relaxation (alpha = 1 is the plain algorithm).
                    bx_eff = bx if relax == 1.0 else (
                        relax * bx + (1.0 - relax) * z_prev
                    )
                    if local_dual_step is not None:
                        z, lam = local_dual_step(bx_eff, z_prev, lam, rho)
                        t2 = t3 = clock() if stamp else 0.0
                    else:
                        z = local_step(bx_eff, z_prev, lam, rho)
                        t2 = clock() if stamp else 0.0
                        lam = dual_step(lam, bx_eff, z, rho)
                        t3 = clock() if stamp else 0.0
                except RewindSignal as rewind:
                    z, lam = rewind.z, rewind.lam
                    truncate_history(history, rewind.iteration)
                    iteration = rewind.iteration
                    continue
                if strategy_residuals is not None:
                    res = strategy_residuals(iteration, x, bx, z, z_prev, lam, rho)
                else:
                    res = compute(
                        bx, z, z_prev, lam, rho, eps_rel, backend, pres_diff, ws.step
                    )
                t4 = clock() if stamp else 0.0
                if record:
                    t_global += t1 - t0
                    t_local += t2 - t1
                    t_dual += t3 - t2
                    t_residual += t4 - t3
                    timed += 1
                if trace_phases:
                    tracer.add_complete("admm.global", t0, t1, cat="admm")
                    tracer.add_complete("admm.local", t1, t2, cat="admm")
                    tracer.add_complete("admm.dual", t2, t3, cat="admm")
                    tracer.add_complete("admm.residual", t3, t4, cat="admm")
                if guard:
                    if not res.finite:
                        self._raise_divergence(
                            iteration, res, best, history,
                            _phase_timers(timed, t_global, t_local, t_dual, t_residual),
                        )
                    if callback is None:
                        # The next iteration writes the workspace's other
                        # set, so these references outlive it.
                        best = (iteration, x, z, lam, res)
                    else:
                        # The callback is handed the live arrays and may
                        # write into them.
                        best = (iteration, x.copy(), z.copy(), lam.copy(), res)
                after_residuals(iteration, res)
                if history is not None:
                    keep_pres(res.pres)
                    keep_dres(res.dres)
                    keep_eps_prim(res.eps_prim)
                    keep_eps_dual(res.eps_dual)
                    keep_rho(rho_f)
                if callback is not None:
                    callback(iteration, x, z, lam, res)
                if res.converged:
                    break
                if balancing:
                    rho = self.balancer.adapt(
                        rho, iteration, res.pres, res.dres, res.eps_prim, res.eps_dual
                    )
                    rho_f = float(rho)
                on_iteration_continue(iteration, z, lam, rho)
                if stall_watch:
                    # ADMM residuals oscillate, so single-iterate
                    # comparisons would routinely flag healthy runs; the
                    # watch tracks the *running best* of the worst
                    # residual-to-tolerance ratio and fires only when a
                    # whole check window fails to improve it.
                    metric = max(
                        res.pres / max(res.eps_prim, 1e-300),
                        res.dres / max(res.eps_dual, 1e-300),
                    )
                    if stall_best is None or metric < stall_best:
                        stall_best = metric
                    if (
                        iteration >= policy.refine_after
                        and iteration % policy.refine_check_every == 0
                    ):
                        if stall_best_at_check is not None and stall_best > 1.0:
                            progress = (
                                stall_best_at_check - stall_best
                            ) / stall_best_at_check
                            if progress < policy.refine_min_progress:
                                stalled = True
                                break
                        stall_best_at_check = stall_best
        converged = bool(res is not None and res.converged)
        if not converged and not stalled and cfg.raise_on_max_iter:
            detail = ""
            if res is not None:
                detail = (
                    f" (pres {res.pres:.2e} vs {res.eps_prim:.2e}, "
                    f"dres {res.dres:.2e} vs {res.eps_dual:.2e})"
                )
            raise ConvergenceError(
                f"{strat.algorithm_name}: no convergence in {budget} iterations"
                + detail
            )
        return LoopOutcome(
            x=x, z=z, lam=lam, res=res, iterations=iteration,
            converged=converged, stalled=stalled, history=history,
            timers=_phase_timers(timed, t_global, t_local, t_dual, t_residual),
        )

    # ------------------------------------------------------------------
    def result(self, outcome: LoopOutcome) -> ADMMResult:
        """Package a :class:`LoopOutcome` as the public :class:`ADMMResult`
        (host fp64 arrays, whatever the execution backend was)."""
        strat = self.strategy
        b = self.backend
        res = outcome.res
        x = b.to_numpy(outcome.x)
        lp = getattr(strat.dec, "lp", None)
        return ADMMResult(
            x=x,
            z=b.to_numpy(outcome.z),
            lam=b.to_numpy(outcome.lam),
            objective=strat.objective(outcome.x),
            iterations=outcome.iterations,
            converged=outcome.converged,
            pres=res.pres if res else float("inf"),
            dres=res.dres if res else float("inf"),
            history=outcome.history,
            timers=strat.final_timers(outcome.timers),
            algorithm=strat.final_algorithm_name(),
            primal_violation=None if lp is None else lp.primal_violation(x),
        )
