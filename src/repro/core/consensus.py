"""The update rules every fidelity rung shares, over K >= 1 stacked scenarios.

Algorithm 1 is one set of update rules: global (18), local (15) and dual
(19).  The rungs of :mod:`repro.methods` differ only in the local update
and in whether the bounds (9d) live in the global clip or in the local
subproblems, so :class:`ConsensusADMM` holds the rest once: the stacked
consensus vectors, the global and dual updates, the initial state,
``solve`` and the fp64 refinement continuation.  Independent same-topology
scenarios stacked scenario by scenario are still one consensus problem:
a serving batch runs the same rules as a single solve, which is K = 1.
A single solve runs on the loop's rho (so residual balancing applies); a
:class:`ScenarioStack` may carry each scenario's rho as data instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import refinement_backend, resolve_backend
from repro.core.config import ADMMConfig
from repro.core.loop import ADMMLoop, IterationStrategy, LoopOutcome, Workspace
from repro.core.results import ADMMResult
from repro.core.rho import ResidualBalancer

_BAD_WARM_START = "warm-start vectors have inconsistent shapes (wrong length)"


def bind_global(backend, gcols, counts, c, bounds, ws, rho_vectors=None):
    """Eq. (18), the closed-form global minimizer, as a step
    ``(z, lam, rho) -> x``.

    A scatter-add of ``z - lam / rho`` over the consensus map ``gcols``,
    accumulated in fp64 and rounded once to the compute dtype, shifted by
    the cost ``c`` and scaled by the copy counts ``diag(B^T B)``, then
    clipped to ``bounds = (lb, ub)``, or left as the unclipped ``x_hat`` of
    (10) when ``bounds`` is ``None``.

    The step writes ``x`` into ``ws.x``, ``lam / rho`` into ``ws.lam_rho``
    and ``z - lam / rho`` into ``ws.zl``, reading ``ws.x`` at every call;
    where ``ws`` holds ``None`` it allocates, with the dtype promotion of
    the plain operators.  It runs on the rho it is called with, or on
    ``rho_vectors = (global, local)`` (each scenario's rho over its
    slices) when given, and recomputes ``c / rho`` only when rho changes.
    """
    xp = backend.xp
    divide, subtract, bincount = xp.divide, xp.subtract, xp.bincount
    maximum, minimum = xp.maximum, xp.minimum
    dtype, n = backend.compute_dtype, counts.size
    lam_rho, zl = ws.lam_rho, ws.zl
    lb, ub = (None, None) if bounds is None else bounds
    rho_g, rho_l = (None, None) if rho_vectors is None else rho_vectors
    c_rho = c_rho_for = None

    def global_step(z, lam, rho):
        nonlocal c_rho, c_rho_for
        rg, rl = (rho, rho) if rho_g is None else (rho_g, rho_l)
        if rg is not c_rho_for:
            c_rho, c_rho_for = c / rg, rg
        out = ws.x
        total = bincount(
            gcols, weights=subtract(z, divide(lam, rl, out=lam_rho), out=zl), minlength=n
        )
        if total.dtype != dtype:  # round the fp64 sum once
            if out is None:
                total = total.astype(dtype)
            else:
                out[...] = total
                total = out
        x = divide(subtract(total, c_rho, out=out), counts, out=out)
        return x if lb is None else minimum(maximum(x, lb, out=out), ub, out=out)

    return global_step


def global_update(backend, gcols, counts, c, z, lam, rho, bounds=None, rho_local=None,
                  *, out=None, lam_rho=None, zl=None):
    """Eq. (18) once: the step of :func:`bind_global`, bound for this call.

    ``rho`` is a scalar or, for stacked scenarios, a vector over the
    global entries whose local-length twin is ``rho_local``.  The result
    goes into ``out``, ``lam / rho`` into ``lam_rho`` and ``z - lam / rho``
    into ``zl`` when given; without them the step allocates.
    """
    ws = Workspace.of(x=out, lam_rho=lam_rho, zl=zl)
    rho_vectors = None if rho_local is None else (rho, rho_local)
    return bind_global(backend, gcols, counts, c, bounds, ws, rho_vectors)(z, lam, rho)


def bind_dual(backend, ws, rho_local=None):
    """Eq. (19) as a step ``(lam, bx, z, rho) -> lam + rho (bx - z)``.

    The step writes ``bx - z`` into ``ws.diff``, ``rho (bx - z)`` into
    ``ws.step`` and the new ``lam`` into ``ws.lam``, reading ``ws.lam`` at
    every call and allocating where ``ws`` holds ``None``.  It runs on the
    rho it is called with, or on the local-length ``rho_local`` when given.
    """
    xp = backend.xp
    subtract, add, multiply = xp.subtract, xp.add, xp.multiply
    diff, scratch = ws.diff, ws.step

    def dual_step(lam, bx, z, rho):
        d = subtract(bx, z, out=diff)
        step = multiply(rho if rho_local is None else rho_local, d, out=scratch)
        return add(lam, step, out=ws.lam)

    return dual_step


@dataclass
class ScenarioStack:
    """K >= 1 same-topology scenarios of one decomposition.

    ``base`` is one scenario's decomposition (a
    :class:`~repro.decomposition.DecomposedOPF` or a
    :class:`~repro.socp.solver.ConicDecomposition`); every scenario shares
    its consensus map, copy counts and component layout.  The lists hold
    each scenario's objective, bounds and initial point.  ``local`` holds
    each scenario's rung-specific data per component (``(M, bbar)``
    projections or reduced ``(A, b)`` systems; ``None`` takes them from
    ``base``) and ``rho`` each scenario's penalty (``None`` runs on the
    loop's rho).
    """

    base: object
    cost: list
    lb: list
    ub: list
    x0: list
    local: list | None = None
    rho: np.ndarray | None = None

    @classmethod
    def single(cls, dec) -> "ScenarioStack":
        """A decomposition as the stack of its one scenario."""
        model = dec.model
        return cls(dec, [model.cost], [model.lb], [model.ub], [model.initial_point()])

    @property
    def k_n(self) -> int:
        return len(self.cost)

    def tiled(self, comps) -> tuple[list, np.ndarray, list | None]:
        """``(components, offsets, local)`` of K copies of ``comps``.

        ``offsets`` are the copies' slice boundaries stacked scenario by
        scenario; ``local`` flattens the per-scenario local data the same
        way (``None`` when the stack carries none).
        """
        sizes = np.array([c.n_vars for c in comps], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(np.tile(sizes, self.k_n))])
        local = None if self.local is None else [d for per in self.local for d in per]
        return list(comps) * self.k_n, offsets, local


class ConsensusADMM(IterationStrategy):
    """One rung over a :class:`ScenarioStack` (``dec`` is the stack, or a
    decomposition as its K = 1 stack); subclasses supply
    :meth:`bind_local` and the class flags.

    Each update rule exists once, as a step factory: :func:`bind_global`,
    :meth:`bind_local` (the rung's own) and :func:`bind_dual`.  A run binds
    them over its workspace (:meth:`bind_steps`), so inside :meth:`solve`
    the global step computes ``lam / rho`` once for the local step, the
    dual step leaves ``B x - z`` for the primal residual, and ``c / rho``
    is recomputed only when rho changes.  The public stages
    (:meth:`global_update`, :meth:`local_update`, :meth:`dual_update`)
    bind the same factories for one call, over the buffers they are
    handed, and allocate the rest.  A result's arrays belong to it: the
    next solve iterates in a new workspace.
    """

    #: Clip the global update to the bounds (9d).  Rungs that keep the
    #: bounds in their local subproblems take the unclipped x_hat of (10).
    clip_global = True
    #: Accept ``config.relaxation != 1`` (over-relaxation); a rung that
    #: runs plain ADMM rejects it.
    use_relaxation = True
    #: Accept ``config.residual_balancing``; a fixed-rho rung rejects it.
    supports_balancing = True
    #: Mixed-precision runs may continue a stalled fp32 solve in fp64;
    #: variants with solver state the continuation cannot reconstruct
    #: (compression codecs, privacy accountants) opt out.
    refinement_supported = True

    def __init__(
        self,
        dec,
        config: ADMMConfig | None = None,
        tracer=None,
        backend=None,
        precision: str | None = None,
    ):
        self.dec = dec
        self.config = config or ADMMConfig()
        if self.config.relaxation != 1.0 and not self.use_relaxation:
            raise ValueError(
                f"{self.algorithm_name} runs plain ADMM only: relaxation "
                f"must be 1, got {self.config.relaxation:g}"
            )
        if self.config.residual_balancing and not self.supports_balancing:
            raise ValueError(
                f"{self.algorithm_name} supports fixed rho only: "
                "residual_balancing must be off"
            )
        self.tracer = tracer
        self.backend = b = resolve_backend(backend, precision)
        stack = dec if isinstance(dec, ScenarioStack) else ScenarioStack.single(dec)
        self.stack = stack
        base = stack.base
        k_n = self.k_n = stack.k_n
        n = base.counts.size
        self.n = k_n * n
        self.n_local = k_n * base.n_local
        self.n_components = k_n * base.n_components
        self.c = b.asarray(np.concatenate(stack.cost))
        self.lb = b.asarray(np.concatenate(stack.lb))
        self.ub = b.asarray(np.concatenate(stack.ub))
        self.x0 = np.concatenate(stack.x0)
        self.gcols = b.index_array(
            np.concatenate([base.global_cols + k * n for k in range(k_n)])
        )
        self.counts = b.asarray(np.tile(base.counts, k_n))
        self._bounds = (self.lb, self.ub) if self.clip_global else None
        # rho enters the iterates in the compute dtype (no silent fp64
        # promotion under fp32).
        self.rho_k = stack.rho
        #: Each scenario's rho over its (global, local) slices, or ``None``
        #: to run on the loop's rho.
        self._rho_pair = None
        if self.rho_k is not None:
            self._rho_pair = (
                b.asarray(np.repeat(self.rho_k, n)),
                b.asarray(np.repeat(self.rho_k, base.n_local)),
            )
        self._balancer = ResidualBalancer(
            mu=self.config.balancing_mu,
            tau=self.config.balancing_tau,
            every=self.config.balancing_every,
        )

    # ------------------------------------------------------------------
    # Update steps, bound once per run over its workspace
    # ------------------------------------------------------------------
    def rho_vectors(self, rho):
        """``(global, local)`` penalties: the loop's ``rho``, or each
        scenario's rho over its slices when the stack carries it."""
        return (rho, rho) if self._rho_pair is None else self._rho_pair

    def bind_global(self, ws):
        """Eq. (18) over ``ws``, clipped unless this rung keeps the bounds
        local (:func:`bind_global`)."""
        return bind_global(
            self.backend, self.gcols, self.counts, self.c, self._bounds, ws,
            self._rho_pair,
        )

    def bind_local(self, ws):
        """Eq. (15), the rung's own rule, as a step ``(bx_eff, z_prev, lam,
        rho) -> z`` at ``v = B x + lam / rho``: it reads ``lam / rho`` from
        ``ws.lam_rho`` and writes into ``ws.z``, reading it at every call."""
        raise NotImplementedError

    def bind_dual(self, ws):
        """Eq. (19) over ``ws`` (:func:`bind_dual`)."""
        rho_l = None if self._rho_pair is None else self._rho_pair[1]
        return bind_dual(self.backend, ws, rho_l)

    def bind_steps(self, ws) -> dict:
        take, gcols = self.backend.take, self.gcols

        def gather(x):
            return take(x, gcols, ws.bx)

        return {
            "global_step": self.bind_global(ws),
            "gather": gather,
            "local_step": self.bind_local(ws),
            "dual_step": self.bind_dual(ws),
        }

    # -- the public stages: one call each, for callers outside the loop --
    def global_update(self, z, lam, rho, out=None, lam_rho=None, zl=None):
        """Eq. (18), clipped unless this rung keeps the bounds local.

        Writes ``x`` into ``out``, ``lam / rho`` into ``lam_rho`` and
        ``z - lam / rho`` into ``zl`` when given.
        """
        return self.bind_global(Workspace.of(x=out, lam_rho=lam_rho, zl=zl))(z, lam, rho)

    def local_update(self, bx, lam, rho, out=None, lam_rho=None):
        """Eq. (15) at ``v = B x + lam / rho`` (the rung's own rule), into
        ``out`` when given; ``lam_rho`` is ``lam / rho`` when the caller
        holds it."""
        if lam_rho is None:
            lam_rho = lam / self.rho_vectors(rho)[1]
        if out is None:
            out = self.backend.empty(self.n_local)
        return self.bind_local(Workspace.of(z=out, lam_rho=lam_rho))(bx, None, lam, rho)

    def dual_update(self, lam, bx, z, rho, out=None, diff=None, step=None):
        """Eq. (19), into ``out`` when given; ``bx - z`` goes into ``diff``
        and ``rho (bx - z)`` into ``step`` when given."""
        return self.bind_dual(Workspace.of(lam=out, diff=diff, step=step))(lam, bx, z, rho)

    def span_args(self) -> dict:
        return {
            "n_vars": self.n,
            "n_components": self.n_components,
            "scenarios": self.k_n,
        }

    # ------------------------------------------------------------------
    def initial_state(self, x0=None, z0=None, lam0=None):
        """Paper's initialization (line 1), or a warm start if given."""
        b = self.backend
        x = b.asarray(self.x0 if x0 is None else x0, copy=True)
        if x.shape != (self.n,):
            raise ValueError(_BAD_WARM_START)
        z = x[self.gcols].copy() if z0 is None else b.asarray(z0, copy=True)
        lam = b.zeros(self.n_local) if lam0 is None else b.asarray(lam0, copy=True)
        if z.shape != (self.n_local,) or lam.shape != (self.n_local,):
            raise ValueError(_BAD_WARM_START)
        return x, z, lam

    def _make_loop(self, *, watch_stall: bool = True) -> ADMMLoop:
        return ADMMLoop(
            self,
            self.config,
            backend=self.backend,
            tracer=self.tracer,
            balancer=self._balancer,
            watch_stall=watch_stall and self.refinement_supported,
        )

    def solve(
        self,
        x0=None,
        z0=None,
        lam0=None,
        max_iter: int | None = None,
        callback=None,
    ) -> ADMMResult:
        """Run the rung until (16) holds or the iteration budget is hit.

        Parameters
        ----------
        x0, z0, lam0:
            Optional warm start (e.g. the previous :class:`ADMMResult`'s
            ``x``, ``z``, ``lam`` after a topology change).
        max_iter:
            Override the configured budget.
        callback:
            Optional ``callback(iteration, x, z, lam, residuals)`` invoked
            every iteration (used by instrumented benchmark runs).  It gets
            the live arrays, valid until the next iteration returns: copy
            what must outlive that.

        Raises
        ------
        ConvergenceError
            Only if ``config.raise_on_max_iter`` and the budget is exhausted.
        DivergenceError
            If ``config.divergence_guard`` and an iterate goes non-finite;
            the error carries the best (last finite) state as ``result``.

        Notes
        -----
        Under a backend whose precision policy enables refinement (the
        ``numpy32`` default), a solve whose relative residuals stall above
        tolerance is continued in fp64, warm-started from the fp32
        iterate; the returned result merges both segments.
        """
        budget = self.config.max_iter if max_iter is None else max_iter
        x, z, lam = self.initial_state(x0, z0, lam0)
        self._balancer.reset()
        loop = self._make_loop()
        outcome = loop.run(x, z, lam, budget=budget, callback=callback)
        if outcome.stalled:
            return self._refine(loop, outcome, budget, callback)
        return loop.result(outcome)

    # ------------------------------------------------------------------
    def _refinement_solver(self, backend) -> "ConsensusADMM":
        """An fp64 twin of this solver for the refinement continuation."""
        return type(self)(self.dec, self.config, tracer=self.tracer, backend=backend)

    def _refine(
        self, loop: ADMMLoop, outcome: LoopOutcome, budget: int, callback
    ) -> ADMMResult:
        """Continue a stalled low-precision solve in fp64.

        Classic ADMM-level iterative refinement: the fp32 iterate is a
        good warm start, and the fp64 continuation recovers the digits
        fp32 rounding cannot represent.
        """
        remaining = budget - outcome.iterations
        if remaining <= 0:
            return loop.result(outcome)
        twin = self._refinement_solver(refinement_backend(self.backend))
        b = self.backend
        x64, z64, lam64 = twin.initial_state(
            b.to_numpy(outcome.x), b.to_numpy(outcome.z), b.to_numpy(outcome.lam)
        )
        twin._balancer.reset()
        loop64 = twin._make_loop(watch_stall=False)
        out64 = loop64.run(x64, z64, lam64, budget=remaining, callback=callback)
        result = loop64.result(out64)
        result.iterations += outcome.iterations
        if outcome.history is not None and out64.history is not None:
            merged = outcome.history
            for name in ("pres", "dres", "eps_prim", "eps_dual", "rho"):
                getattr(merged, name).extend(getattr(out64.history, name))
            result.history = merged
        timers = dict(outcome.timers)
        for key, val in result.timers.items():
            timers[key] = timers.get(key, 0.0) + val
        result.timers = timers
        result.algorithm = f"{self.algorithm_name} (fp32 + fp64 refinement)"
        return result
