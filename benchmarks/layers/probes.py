"""Layer probes: timers wrapped around public calls into each layer.

The benchmark measures every layer from outside the program.
:meth:`LayerProbes.install` replaces a handful of public methods with
timing wrappers by assignment, and :meth:`LayerProbes.uninstall` puts the
originals back, so nothing under ``src/`` changes or knows it is measured.

Wrapped calls, by layer:

* ``repro.core.loop`` - ``ADMMLoop.run``; for the duration of each run, the
  strategy's ``global_step`` / ``local_step`` / ``dual_step`` and its
  residual hook (``strategy.residuals``, or the loop's ``compute_residuals``).
* ``repro.core.batch`` - ``BatchedLocalSolver.from_parts`` (building the
  padded operators) and ``BatchedLocalSolver.solve`` (the batched kernel).
* ``repro.serve`` - ``TopologyPlan.__init__`` / ``build_scenario``,
  ``WarmStartCache.lookup`` / ``store`` and ``ScenarioEngine.step``.
* ``repro.fleet`` - ``FleetFrontend.submit`` / ``poll``.

Times accumulate in seconds in :attr:`LayerProbes.t`, call counts in
:attr:`LayerProbes.n` and computed kernel work in :attr:`LayerProbes.work`.
"""

from __future__ import annotations

import time
import weakref
from collections import defaultdict

import repro.core.loop as loop_module
from repro.core.batch import BatchedLocalSolver
from repro.core.loop import ADMMLoop
from repro.fleet import FleetFrontend
from repro.serve import ScenarioEngine, TopologyPlan, WarmStartCache

#: Strategy hooks timed inside each ``ADMMLoop.run``, by probe key.
LOOP_HOOKS = {
    "global_step": "loop.global",
    "local_step": "loop.local",
    "dual_step": "loop.dual",
    "residuals": "loop.residual",
}

_clock = time.perf_counter


def kernel_work(solver: BatchedLocalSolver) -> tuple[float, float, float]:
    """``(useful flops, padded flops, bytes)`` of one ``solver.solve`` call.

    Bytes are computed from array sizes, not measured: each call touches the
    projection tensors once, the padded input, output and bias vectors, and
    the gathered and scattered stacked entries with their int indices.
    """
    useful = float(solver.flops.sum())
    padded = 0.0
    nbytes = 0.0
    for bucket in solver.buckets:
        rows, width, _ = bucket.proj.shape
        entries = bucket.stack_idx.size
        item = bucket.proj.dtype.itemsize
        padded += rows * (2.0 * width * width + width)
        nbytes += item * (rows * width * width + 3.0 * rows * width + 2.0 * entries)
        nbytes += 2.0 * entries * bucket.stack_idx.dtype.itemsize
    return useful, padded, nbytes


def loop_components(strategy) -> int:
    """Local components one iteration of ``strategy`` updates."""
    args = strategy.span_args()
    if "n_components" in args:
        return int(args["n_components"])
    dec = getattr(strategy, "dec", None)
    if dec is not None:
        return int(dec.n_components)
    # A stacked serving batch: its solver holds every scenario's components.
    solver = getattr(strategy, "solver", None)
    return int(solver.n_components) if solver is not None else 0


class LayerProbes:
    """Installable timing wrappers; one instance may be installed at a time."""

    def __init__(self):
        self.t: defaultdict[str, float] = defaultdict(float)
        self.n: defaultdict[str, int] = defaultdict(int)
        self.work: defaultdict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []
        self._kernel_work: dict[int, tuple] = {}

    def reset(self) -> None:
        self.t.clear()
        self.n.clear()
        self.work.clear()

    # -- install / uninstall ---------------------------------------------
    def install(self) -> "LayerProbes":
        if self._saved:
            raise RuntimeError("probes already installed")
        timer = self._timer
        self._patch(ADMMLoop, "run", self._probed_run)
        self._patch(loop_module, "compute_residuals",
                    lambda fn: timer("loop.residual", fn))
        self._patch(BatchedLocalSolver, "from_parts",
                    lambda raw: classmethod(timer("batch.build", raw.__func__)))
        self._patch(BatchedLocalSolver, "solve", self._probed_kernel)
        self._patch(TopologyPlan, "__init__", lambda fn: timer("serve.plan", fn))
        self._patch(TopologyPlan, "build_scenario", lambda fn: timer("serve.build", fn))
        self._patch(WarmStartCache, "lookup", lambda fn: timer("serve.warm_lookup", fn))
        self._patch(WarmStartCache, "store", lambda fn: timer("serve.warm_store", fn))
        self._patch(ScenarioEngine, "step", self._probed_step)
        self._patch(FleetFrontend, "submit", lambda fn: timer("fleet.submit", fn))
        self._patch(FleetFrontend, "poll", lambda fn: timer("fleet.poll", fn))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerProbes":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, name: str, make) -> None:
        original = vars(owner)[name]
        setattr(owner, name, make(original))
        self._saved.append((owner, name, original))

    # -- wrappers ----------------------------------------------------------
    def _timer(self, key: str, fn):
        t, n = self.t, self.n

        def timed(*args, **kwargs):
            start = _clock()
            out = fn(*args, **kwargs)
            t[key] += _clock() - start
            n[key] += 1
            return out

        return timed

    def _probed_run(self, run):
        t, n, timer = self.t, self.n, self._timer

        def probed_run(loop, x, z, lam, **kwargs):
            strategy = loop.strategy
            hooks = [h for h in LOOP_HOOKS if getattr(strategy, h) is not None]
            own = {h: vars(strategy)[h] for h in hooks if h in vars(strategy)}
            for hook in hooks:
                setattr(strategy, hook, timer(LOOP_HOOKS[hook], getattr(strategy, hook)))
            start = _clock()
            try:
                outcome = run(loop, x, z, lam, **kwargs)
            finally:
                elapsed = _clock() - start
                for hook in hooks:
                    if hook in own:
                        setattr(strategy, hook, own[hook])
                    else:
                        delattr(strategy, hook)
            iterations = outcome.iterations
            t["loop.run"] += elapsed
            n["loop.run"] += 1
            n["loop.iterations"] += iterations
            n["loop.scenario_iterations"] += (
                strategy.span_args().get("scenarios", 1) * iterations
            )
            n["loop.component_iterations"] += loop_components(strategy) * iterations
            return outcome

        return probed_run

    def _probed_kernel(self, solve):
        t, n, work, known = self.t, self.n, self.work, self._kernel_work

        def probed_solve(solver, v, out=None):
            start = _clock()
            z = solve(solver, v, out)
            t["batch.solve"] += _clock() - start
            n["batch.solve"] += 1
            ref, cost = known.get(id(solver), (None, None))
            if ref is None or ref() is not solver:
                cost = kernel_work(solver)
                known[id(solver)] = (weakref.ref(solver), cost)
            work["useful_flops"] += cost[0]
            work["padded_flops"] += cost[1]
            work["bytes"] += cost[2]
            return z

        return probed_solve

    def _probed_step(self, step):
        t, n = self.t, self.n

        def probed_step(engine):
            start = _clock()
            responses = step(engine)
            t["serve.step"] += _clock() - start
            n["serve.step"] += 1
            n["serve.batches"] += bool(responses)
            n["serve.responses"] += len(responses)
            return responses

        return probed_step
