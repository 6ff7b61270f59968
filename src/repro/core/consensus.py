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
from repro.core.loop import ADMMLoop, IterationStrategy, LoopOutcome
from repro.core.results import ADMMResult
from repro.core.rho import ResidualBalancer

_BAD_WARM_START = "warm-start vectors have inconsistent shapes (wrong length)"


def global_update(backend, gcols, counts, c, z, lam, rho, bounds=None, rho_local=None,
                  *, c_rho=None, out=None, lam_rho=None, zl=None):
    """Eq. (18): the closed-form global minimizer.

    A scatter-add of ``z - lam / rho`` over the consensus map ``gcols``,
    shifted by the cost ``c`` and scaled by the copy counts
    ``diag(B^T B)``, then clipped to ``bounds = (lb, ub)`` — or left as
    the unclipped ``x_hat`` of (10) when ``bounds`` is ``None``.  ``rho``
    is a scalar or, for stacked scenarios, a vector over the global
    entries whose local-length twin is ``rho_local``.

    ``c_rho`` is ``c / rho`` when the caller keeps it.  The result goes
    into ``out``, ``lam / rho`` into ``lam_rho`` and ``z - lam / rho`` into
    ``zl`` when given; without them each step allocates, with the dtype
    promotion of the plain operators.
    """
    xp = backend.xp
    rho_local = rho if rho_local is None else rho_local
    lam_rho = xp.divide(lam, rho_local, out=lam_rho)
    scatter = backend.scatter_add(gcols, xp.subtract(z, lam_rho, out=zl), counts.size)
    xhat = xp.subtract(scatter, c / rho if c_rho is None else c_rho, out=out)
    xhat = xp.divide(xhat, counts, out=out)
    return xhat if bounds is None else backend.clip(xhat, *bounds, out=out)


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
    :meth:`local_update` and the class flags.

    The public stages (:meth:`global_update`, :meth:`local_update`,
    :meth:`dual_update`) allocate their results unless handed buffers.
    The engine hooks hand them the run's workspace, so inside
    :meth:`solve` the global update computes ``lam / rho`` once for the
    local update, the dual update leaves ``B x - z`` for the primal
    residual, and ``c / rho`` is recomputed only when rho changes.  A
    result's arrays belong to it: the next solve iterates in a new
    workspace.
    """

    #: Clip the global update to the bounds (9d).  Rungs that keep the
    #: bounds in their local subproblems take the unclipped x_hat of (10).
    clip_global = True
    #: Mixed-precision runs may continue a stalled fp32 solve in fp64;
    #: variants with solver state the continuation cannot reconstruct
    #: (compression codecs, privacy accountants) opt out.
    refinement_supported = True
    #: Wall-time phase timers and per-phase spans (variants whose
    #: historical loops kept neither opt out).
    phase_timing = True

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
        if self.rho_k is not None:
            self._rho_g = b.asarray(np.repeat(self.rho_k, n))
            self._rho_l = b.asarray(np.repeat(self.rho_k, base.n_local))
        # c / rho for the rho (scalar or per-scenario vector) it was
        # last computed for: it changes only when residual balancing
        # moves rho.
        self._c_rho = self._c_rho_for = None
        self._balancer = ResidualBalancer(
            mu=self.config.balancing_mu,
            tau=self.config.balancing_tau,
            every=self.config.balancing_every,
        )

    # ------------------------------------------------------------------
    # Update stages (exposed individually for tests and instrumentation)
    # ------------------------------------------------------------------
    def rho_vectors(self, rho):
        """``(global, local)`` penalties: the loop's ``rho``, or each
        scenario's rho over its slices when the stack carries it."""
        if self.rho_k is None:
            return rho, rho
        return self._rho_g, self._rho_l

    def global_update(self, z, lam, rho, out=None, lam_rho=None, zl=None):
        """Eq. (18), clipped unless this rung keeps the bounds local.

        Writes ``x`` into ``out``, ``lam / rho`` into ``lam_rho`` and
        ``z - lam / rho`` into ``zl`` when given.
        """
        rho_g, rho_l = self.rho_vectors(rho)
        if rho_g is not self._c_rho_for:
            self._c_rho, self._c_rho_for = self.c / rho_g, rho_g
        return global_update(
            self.backend, self.gcols, self.counts, self.c, z, lam, rho_g,
            self._bounds, rho_l, c_rho=self._c_rho, out=out, lam_rho=lam_rho, zl=zl,
        )

    def local_update(self, bx, lam, rho, out=None, lam_rho=None):
        """Eq. (15) at ``v = B x + lam / rho`` (the rung's own rule), into
        ``out`` when given; ``lam_rho`` is ``lam / rho`` when the caller
        holds it."""
        raise NotImplementedError

    def dual_update(self, lam, bx, z, rho, out=None, diff=None, step=None):
        """Eq. (19), into ``out`` when given; ``bx - z`` goes into ``diff``
        and ``rho (bx - z)`` into ``step`` when given."""
        xp = self.backend.xp
        diff = xp.subtract(bx, z, out=diff)
        return xp.add(lam, xp.multiply(self.rho_vectors(rho)[1], diff, out=step), out=out)

    # ------------------------------------------------------------------
    # Engine hooks (repro.core.loop) — the public stages, writing into the
    # run's workspace
    # ------------------------------------------------------------------
    def global_step(self, z, lam, rho):
        ws = self.workspace
        return self.global_update(z, lam, rho, ws.x, ws.lam_rho, ws.zl)

    def local_step(self, bx_eff, z_prev, lam, rho):
        ws = self.workspace
        return self.local_update(bx_eff, lam, rho, ws.z, ws.lam_rho)

    def dual_step(self, lam, bx_eff, z, rho):
        ws = self.workspace
        return self.dual_update(lam, bx_eff, z, rho, ws.lam, ws.diff, ws.step)

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
            record_timers=self.phase_timing,
            phase_spans=self.phase_timing,
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
