"""Deterministic fault injection: seeded, declarative chaos testing.

A :class:`FaultPlan` is an immutable list of fault specs plus a seed; a
:class:`FaultInjector` is the stateful applier a run threads through its
iterations.  Everything downstream of a plan is reproducible: the same
plan against the same problem produces bit-identical fault timing, NaN
masks and recovery behavior, which is what lets the chaos tests in
``tests/test_resilience.py`` assert exact trajectories.

Fault types
-----------
:class:`RankCrash`
    Rank r stops responding from iteration k onward (fail-stop).  The
    distributed runner detects it through the missed gather deadline
    and fails over (checkpoint restore + component reassignment).
:class:`StragglerSlowdown`
    Rank r's compute is multiplied by ``factor`` over an iteration window
    — the runner either absorbs it in the barrier (synchronous mode) or
    tolerates bounded staleness (stale-iterate mode).
:class:`MessageDrop` / :class:`MessageDelay`
    Point-to-point wire faults consulted by
    :class:`~repro.parallel.mpi_sim.SimComm` on every message.
:class:`NaNCorruption`
    Payload corruption: a seeded fraction of a target scenario's (or
    rank's) local iterate is overwritten with NaN at iteration k.  This is
    what drives the serving engine's divergence-guard / retry / degrade
    path end to end.
:class:`WorkerCrash`
    Fleet-plane fail-stop: serving worker ``worker`` dies after completing
    ``after_served`` requests.  In the fleet's sim mode the worker stops
    mid-dispatch (its in-flight batch and queued requests stay
    recoverable); in process mode the worker process hard-exits without
    draining its queues.  Drives the
    :class:`~repro.fleet.FleetFrontend` failover path.

Every fault that actually fires increments the ``fault.injected`` counter
on the injector's metrics registry (once per fault spec, not once per
iteration it stays active).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.telemetry.metrics import MetricsRegistry

#: Wildcard target key for :class:`NaNCorruption` (matches any scenario).
ANY_TARGET = "*"


@dataclass(frozen=True)
class RankCrash:
    """Fail-stop: ``rank`` sends nothing from ``at_iteration`` onward."""

    rank: int
    at_iteration: int


@dataclass(frozen=True)
class StragglerSlowdown:
    """Multiply ``rank``'s compute time by ``factor`` over an iteration
    window (``until_iteration=None`` means forever)."""

    rank: int
    factor: float
    from_iteration: int = 1
    until_iteration: int | None = None

    def active(self, iteration: int) -> bool:
        if iteration < self.from_iteration:
            return False
        return self.until_iteration is None or iteration <= self.until_iteration


@dataclass(frozen=True)
class MessageDrop:
    """Lose every ``src -> dst`` message at ``at_iteration``."""

    src: int
    dst: int
    at_iteration: int


@dataclass(frozen=True)
class MessageDelay:
    """Add ``delay_s`` of wire time to ``src -> dst`` messages in a window."""

    src: int
    dst: int
    delay_s: float
    from_iteration: int = 1
    until_iteration: int | None = None

    def active(self, iteration: int) -> bool:
        if iteration < self.from_iteration:
            return False
        return self.until_iteration is None or iteration <= self.until_iteration


@dataclass(frozen=True)
class NaNCorruption:
    """Overwrite a seeded ``fraction`` of the target's local iterate with
    NaN at ``at_iteration``.

    ``target`` is a request id for serving-engine injection (or
    :data:`ANY_TARGET`), or ``"rank:<r>"`` for the distributed runner.
    ``attempt`` scopes the fault to one solve attempt, so a retry of the
    poisoned scenario runs clean — the reproducible version of a transient
    memory/transfer corruption.
    """

    target: str
    at_iteration: int
    fraction: float = 0.25
    attempt: int = 0


@dataclass(frozen=True)
class WorkerCrash:
    """Fail-stop of a fleet serving worker after ``after_served`` requests.

    ``after_served=0`` kills the worker before it serves anything (its
    whole queue fails over); any larger value lets it complete that many
    requests first — the "mid-run" chaos case the fleet smoke tests run.
    """

    worker: str
    after_served: int = 0


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, immutable chaos schedule.

    Examples
    --------
    >>> plan = FaultPlan(seed=7, faults=(
    ...     RankCrash(rank=2, at_iteration=40),
    ...     StragglerSlowdown(rank=1, factor=10.0, from_iteration=10),
    ... ))
    >>> plan.crash_iteration(2)
    40
    """

    seed: int = 0
    faults: tuple = ()

    def __post_init__(self) -> None:
        for f in self.faults:
            if isinstance(f, StragglerSlowdown) and f.factor < 1.0:
                raise ValueError("straggler factor must be >= 1")
            if isinstance(f, NaNCorruption) and not 0.0 < f.fraction <= 1.0:
                raise ValueError("corruption fraction must lie in (0, 1]")
            if isinstance(f, WorkerCrash) and f.after_served < 0:
                raise ValueError("after_served must be nonnegative")

    # -- spec queries (stateless; the injector adds iteration context) ---
    def crash_iteration(self, rank: int) -> int | None:
        """Earliest crash iteration scheduled for ``rank`` (None = never)."""
        its = [f.at_iteration for f in self.faults
               if isinstance(f, RankCrash) and f.rank == rank]
        return min(its) if its else None

    def crashed_ranks(self) -> set[int]:
        return {f.rank for f in self.faults if isinstance(f, RankCrash)}

    def worker_crash_after(self, worker_id: str) -> int | None:
        """Requests ``worker_id`` completes before fail-stopping (None =
        the fleet plan never kills this worker)."""
        counts = [f.after_served for f in self.faults
                  if isinstance(f, WorkerCrash) and f.worker == worker_id]
        return min(counts) if counts else None

    def worker_crash_schedule(self, worker_id: str) -> list[int]:
        """Every ``after_served`` crash point for ``worker_id``, ascending.

        Entry ``i`` is incarnation ``i``'s crash point — the supervisor
        seeds each restart's chaos hook from the next entry, so a plan
        with K entries for one worker id is a worker that crashes K times
        (a crash loop when the entries are close together).
        """
        return sorted(
            f.after_served
            for f in self.faults
            if isinstance(f, WorkerCrash) and f.worker == worker_id
        )

    def of_type(self, kind) -> list:
        return [f for f in self.faults if isinstance(f, kind)]

    @classmethod
    def chaos(
        cls,
        seed: int,
        n_ranks: int,
        horizon: int,
        crash_probability: float = 0.5,
        straggler_probability: float = 0.5,
        max_straggler_factor: float = 10.0,
    ) -> "FaultPlan":
        """Generate a random-but-reproducible plan for an ``n_ranks`` run.

        Rank 0 (the aggregator) is never targeted.  Probabilities are per
        plan, not per rank: at most one crash and one straggler are drawn,
        which keeps generated plans survivable by construction.
        """
        rng = np.random.default_rng(seed)
        faults: list = []
        workers = list(range(1, n_ranks))
        if workers and rng.random() < crash_probability:
            faults.append(RankCrash(
                rank=int(rng.choice(workers)),
                at_iteration=int(rng.integers(2, max(3, horizon // 2))),
            ))
        crashed = {f.rank for f in faults}
        candidates = [r for r in workers if r not in crashed]
        if candidates and rng.random() < straggler_probability:
            faults.append(StragglerSlowdown(
                rank=int(rng.choice(candidates)),
                factor=float(rng.uniform(2.0, max_straggler_factor)),
                from_iteration=int(rng.integers(1, max(2, horizon // 4))),
            ))
        return cls(seed=seed, faults=tuple(faults))

    @classmethod
    def fleet_storm(
        cls,
        seed: int,
        worker_ids: list[str],
        kills: int,
        max_after_served: int = 6,
        spare: int = 1,
    ) -> "FaultPlan":
        """Generate a seeded kill storm over a serving fleet.

        Draws ``kills`` :class:`WorkerCrash` specs across ``worker_ids``,
        leaving at least ``spare`` worker ids untargeted so the storm is
        survivable by construction.  Crash points are drawn in
        ``[0, max_after_served]``; repeat draws for one worker become its
        successive incarnations' crash points (the supervisor consumes
        them via :meth:`worker_crash_schedule`).
        """
        if spare < 0 or spare >= len(worker_ids):
            raise ValueError("spare must leave at least one targetable worker")
        rng = np.random.default_rng(seed)
        targets = sorted(worker_ids)
        spared = {targets[int(i)] for i in rng.choice(
            len(targets), size=spare, replace=False
        )}
        candidates = [w for w in targets if w not in spared]
        faults = tuple(
            WorkerCrash(
                worker=candidates[int(rng.integers(0, len(candidates)))],
                after_served=int(rng.integers(0, max_after_served + 1)),
            )
            for _ in range(kills)
        )
        return cls(seed=seed, faults=faults)


class FaultInjector:
    """Stateful applier of a :class:`FaultPlan` during one run.

    The driving loop calls :meth:`begin_iteration` once per iteration (and
    :meth:`begin_attempt` once per solve attempt in the serving engine);
    the communicator and runner then query the injector for the faults
    active *now*.  Fired fault specs are counted exactly once on the
    ``fault.injected`` counter of ``metrics``.
    """

    def __init__(self, plan: FaultPlan | None, metrics: MetricsRegistry | None = None):
        self.plan = plan if plan is not None else FaultPlan()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.iteration = 0
        self.attempt = 0
        self._fired: set[int] = set()
        self._injected = self.metrics.counter("fault.injected")

    def __bool__(self) -> bool:
        return bool(self.plan.faults)

    def begin_iteration(self, iteration: int) -> None:
        self.iteration = int(iteration)

    def begin_attempt(self, attempt: int) -> None:
        self.attempt = int(attempt)
        self.iteration = 0

    def _fire(self, fault) -> None:
        key = id(fault)
        if key not in self._fired:
            self._fired.add(key)
            self._injected.inc()

    @property
    def injected(self) -> int:
        """Count of distinct fault specs that have fired so far."""
        return self._injected.value

    # ------------------------------------------------------------------
    def crashed(self, rank: int) -> bool:
        """Has ``rank`` fail-stopped at the current iteration?"""
        for f in self.plan.of_type(RankCrash):
            if f.rank == rank and self.iteration >= f.at_iteration:
                self._fire(f)
                return True
        return False

    def slowdown(self, rank: int) -> float:
        """Compute-time multiplier for ``rank`` at the current iteration."""
        factor = 1.0
        for f in self.plan.of_type(StragglerSlowdown):
            if f.rank == rank and f.active(self.iteration):
                self._fire(f)
                factor *= f.factor
        return factor

    def message_fault(self, src: int, dst: int) -> tuple[bool, float]:
        """(dropped, extra_delay_s) for one p2p message right now.

        This is the :class:`~repro.parallel.mpi_sim.SimComm` hook.
        """
        dropped = False
        delay = 0.0
        for f in self.plan.of_type(MessageDrop):
            if f.src == src and f.dst == dst and f.at_iteration == self.iteration:
                self._fire(f)
                dropped = True
        for f in self.plan.of_type(MessageDelay):
            if f.src == src and f.dst == dst and f.active(self.iteration):
                self._fire(f)
                delay += f.delay_s
        return dropped, delay

    def corrupt(self, values: np.ndarray, target: str) -> bool:
        """Apply any matching :class:`NaNCorruption` to ``values`` in place.

        The NaN mask is drawn from a generator seeded by
        ``(plan.seed, target, iteration)``, so corruption is identical
        across reruns of the same plan.  Returns whether anything fired.
        """
        fired = False
        for f in self.plan.of_type(NaNCorruption):
            if f.at_iteration != self.iteration or f.attempt != self.attempt:
                continue
            if f.target != ANY_TARGET and f.target != target:
                continue
            # crc32, not hash(): str hashing is salted per process and
            # would break cross-run reproducibility.
            rng = np.random.default_rng(
                [self.plan.seed, zlib.crc32(target.encode()), self.iteration]
            )
            n = max(1, int(round(f.fraction * values.size)))
            idx = rng.choice(values.size, size=n, replace=False)
            values[idx] = np.nan
            self._fire(f)
            fired = True
        return fired


#: Shared disabled injector (no plan, throwaway registry) — the default the
#: instrumented components fall back to, mirroring ``NULL_TRACER``.
NULL_INJECTOR = FaultInjector(None)
