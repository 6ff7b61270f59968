"""Self-healing supervision over a :class:`~repro.fleet.FleetFrontend`.

PR 6 made the serving plane survive a worker death: failover re-routes
the dead worker's accepted requests to the survivors and the fleet keeps
answering — but *smaller*, and with the dead worker's topology-affinity
caches gone.  The supervisor closes the loop:

* **heartbeats** — every tick it probes each worker's liveness.  In sim
  mode the probe runs on the supervisor's own virtual clock, so death
  detection happens after exactly ``miss_threshold`` ticks and the whole
  recovery replays bit-identically from a seed.  In process mode the
  child posts :data:`~repro.fleet.worker.WORKER_HEARTBEAT` whenever its
  request get idles past the heartbeat interval, the frontend stamps
  ``last_heartbeat`` on *every* child message, and ``process.is_alive()``
  is the authoritative death signal (a stale heartbeat on a live process
  means *busy*, not dead — it is counted, never killed, unless
  ``kill_unresponsive_after_s`` is set).
* **auto-restart with seeded backoff** — a declared death schedules a
  restart after :class:`~repro.resilience.RetryPolicy` backoff
  (exponential, deterministic seeded jitter).  Each incarnation's chaos
  crash point comes from the fault plan's
  :meth:`~repro.resilience.FaultPlan.worker_crash_schedule`, so kill
  storms replay exactly.
* **crash-loop quarantine** — more than ``max_restarts`` deaths inside
  ``crash_loop_window_s`` quarantines the worker id: no further
  restarts, its vnodes stay rebalanced onto the survivors, and the
  configured capacity target drops by one (flapping is worse than
  running smaller).
* **cache re-warming** — after a restart the frontend replays the warm
  state for every topology the ring hands back to the worker, exported
  from the survivor that covered each key during the outage (see
  :meth:`FleetFrontend.rewarm_worker`), so post-restart routing returns
  to the original ring *with* recovered warm-hit rates instead of a cold
  cache.
* **graceful drain** — :meth:`FleetSupervisor.drain` takes a worker out
  of the ring first, lets it finish every request it had accepted, hands
  its warm state to the keys' new owners, and only then removes it —
  zero lost or duplicated requests, asserted against the outstanding
  ledger.

MTTR (death detected → restart complete, virtual seconds in sim) lands
on the ``fleet.restart.mttr_s`` histogram; counters live under
``fleet.heartbeat.*`` / ``fleet.restart.*`` / ``fleet.drain.*``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.fleet.frontend import MODE_SIM, FleetFrontend
from repro.resilience.policy import RetryPolicy
from repro.serve.requests import OPFRequest, OPFResponse
from repro.utils.exceptions import ReproError


@dataclass(frozen=True)
class SupervisorConfig:
    """Health-check cadence, restart policy and quarantine budget.

    ``max_restarts`` is the per-worker restart budget inside
    ``crash_loop_window_s``: death number ``max_restarts + 1`` within the
    window quarantines the id.  ``rewarm=False`` restarts workers cold
    (the control arm of the warm-hit recovery tests).
    """

    heartbeat_interval_s: float = 1.0
    miss_threshold: int = 3
    restart_base_delay_s: float = 0.05
    restart_multiplier: float = 2.0
    restart_max_delay_s: float = 5.0
    restart_jitter: float = 0.1
    max_restarts: int = 3
    crash_loop_window_s: float = 300.0
    rewarm: bool = True
    kill_unresponsive_after_s: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if self.miss_threshold < 1:
            raise ValueError("miss_threshold must be at least 1")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be nonnegative")

    def backoff(self) -> RetryPolicy:
        """The seeded exponential restart backoff (attempt k = restart k)."""
        return RetryPolicy(
            max_retries=self.max_restarts,
            base_delay_s=self.restart_base_delay_s,
            max_delay_s=self.restart_max_delay_s,
            multiplier=self.restart_multiplier,
            jitter=self.restart_jitter,
            seed=self.seed,
        )


@dataclass
class WorkerHealth:
    """Supervisor-side health record of one worker id."""

    misses: int = 0
    down: bool = False
    quarantined: bool = False
    restarts: int = 0
    deaths: list = field(default_factory=list)  # clock times, window-pruned
    detected_at: float | None = None
    restart_due: float | None = None

    def as_dict(self) -> dict:
        return {
            "misses": self.misses,
            "down": self.down,
            "quarantined": self.quarantined,
            "restarts": self.restarts,
            "deaths": list(self.deaths),
        }


class FleetSupervisor:
    """Drives health checks, restarts, re-warming and drains.

    The supervisor owns no workers — it observes and commands the
    frontend.  One :meth:`tick` is one supervision round: poll the fleet
    for progress, probe liveness, declare deaths, quarantine crash
    loops, and execute due restarts.  In sim mode ``tick`` advances a
    virtual clock by ``heartbeat_interval_s`` per call, which makes the
    entire kill/detect/backoff/restart/rewarm cycle a deterministic
    function of (fleet seed, fault plan, supervisor seed).
    """

    def __init__(self, frontend: FleetFrontend, config: SupervisorConfig | None = None):
        self.frontend = frontend
        self.config = config if config is not None else SupervisorConfig()
        self._sim = frontend.config.mode == MODE_SIM
        self._vnow = 0.0  # virtual clock (sim mode only)
        self._backoff = self.config.backoff()
        self.health: dict[str, WorkerHealth] = {
            wid: WorkerHealth() for wid in frontend.workers
        }
        self._mttr = frontend.metrics.histogram("fleet.restart.mttr_s")
        for wid in frontend.workers:
            frontend.last_heartbeat.setdefault(wid, self.now())

    # -- clocks ---------------------------------------------------------
    def now(self) -> float:
        return self._vnow if self._sim else time.monotonic()

    # -- introspection --------------------------------------------------
    def quarantined(self) -> set[str]:
        return {wid for wid, h in self.health.items() if h.quarantined}

    def capacity(self) -> dict:
        """Alive count vs the current target (configured minus quarantined)."""
        alive = sum(1 for wid in self.frontend.workers if self.frontend._alive(wid))
        target = len(self.frontend.workers) - len(self.quarantined())
        return {"alive": alive, "target": target, "recovered": alive >= target}

    def pending_restarts(self) -> set[str]:
        return {
            wid
            for wid, h in self.health.items()
            if h.down and not h.quarantined
        }

    # -- the supervision round ------------------------------------------
    def tick(self, dt: float | None = None) -> list[OPFResponse]:
        """One supervision round; returns responses completed during it.

        Sim mode advances the virtual clock by ``dt`` (default: one
        heartbeat interval); its poll never waits.  Process mode waits up
        to ``dt`` seconds for fleet progress, so a supervision loop does
        not busy-spin.
        """
        fe = self.frontend
        dt = self.config.heartbeat_interval_s if dt is None else dt
        # Everything finalized during the tick counts, including responses
        # dispatched while a restart awaits READY or a rewarm awaits STATE.
        before = len(fe._responses)
        if self._sim:
            self._vnow += dt
        fe.poll(timeout=dt)
        now = self.now()
        for wid in sorted(fe.workers):
            self._check_worker(wid, now)
        self._restart_due(now)
        fe._gauge_depths()
        return fe._responses[before:]

    def _check_worker(self, wid: str, now: float) -> None:
        fe = self.frontend
        health = self.health.setdefault(wid, WorkerHealth())
        if health.quarantined or health.down:
            return
        alive = fe._alive(wid)
        if self._sim:
            # Deterministic probe: one missed heartbeat per tick the
            # worker fails it; death after miss_threshold consecutive
            # misses (detection latency is modeled, not assumed).
            if alive:
                health.misses = 0
                fe.last_heartbeat[wid] = now
                return
            health.misses += 1
            fe.metrics.counter("fleet.heartbeat.missed").inc()
            if health.misses >= self.config.miss_threshold:
                self._declare_death(wid, now)
            return
        # Process mode: is_alive is authoritative for death; heartbeat
        # staleness on a live process means busy (counted, not killed,
        # unless explicitly configured to escalate).
        stale_s = now - fe.last_heartbeat.get(wid, now)
        if not alive:
            self._declare_death(wid, now)
        elif stale_s > self.config.miss_threshold * self.config.heartbeat_interval_s:
            fe.metrics.counter("fleet.heartbeat.stale").inc()
            kill_after = self.config.kill_unresponsive_after_s
            if kill_after is not None and stale_s > kill_after:
                fe.kill_worker(wid)
                self._declare_death(wid, now)

    def _declare_death(self, wid: str, now: float) -> None:
        fe = self.frontend
        health = self.health[wid]
        health.down = True
        health.misses = 0
        health.detected_at = now
        window = self.config.crash_loop_window_s
        health.deaths = [t for t in health.deaths if now - t <= window]
        health.deaths.append(now)
        if len(health.deaths) > self.config.max_restarts:
            # Crash loop: flapping costs more than running one short.
            # The vnodes stay rebalanced onto the survivors for good.
            health.quarantined = True
            health.restart_due = None
            fe.metrics.counter("fleet.restart.quarantined").inc()
            return
        delay = self._backoff.delay(health.restarts + 1)  # 1-based attempts
        health.restart_due = now + delay
        fe.metrics.counter("fleet.restart.scheduled").inc()

    def _restart_due(self, now: float) -> None:
        fe = self.frontend
        for wid in sorted(self.health):
            health = self.health[wid]
            if (
                health.restart_due is None
                or health.quarantined
                or now < health.restart_due
            ):
                continue
            if fe._alive(wid):  # raced a manual restart
                health.down = False
                health.restart_due = None
                continue
            incarnation = health.restarts + 1
            schedule = (
                fe.fault_plan.worker_crash_schedule(wid)
                if fe.fault_plan is not None
                else []
            )
            crash_next = (
                schedule[incarnation] if incarnation < len(schedule) else None
            )
            with fe.tracer.span(
                "fleet.restart", cat="fleet", worker=wid, incarnation=incarnation
            ):
                fe.restart_worker(wid, crash_after_served=crash_next)
                if self.config.rewarm:
                    fe.rewarm_worker(wid)
            health.restarts += 1
            health.down = False
            health.restart_due = None
            if health.detected_at is not None:
                self._mttr.observe(self.now() - health.detected_at)
                health.detected_at = None

    # -- serving driver -------------------------------------------------
    def serve(self, requests: list[OPFRequest]) -> list[OPFResponse]:
        """Submit everything and tick until every accepted request is
        answered, supervising (and restarting workers) along the way.
        Responses come back in submission order, rejections included."""
        fe = self.frontend
        rejected: list[OPFResponse] = []
        for req in requests:
            resp = fe.submit(req)
            if resp is not None:
                rejected.append(resp)
        collected: list[OPFResponse] = []
        stall_deadline = time.monotonic() + fe.config.response_timeout_s
        while fe._outstanding_total() > 0:
            got = self.tick(None if self._sim else 0.25)
            collected.extend(got)
            if got:
                stall_deadline = time.monotonic() + fe.config.response_timeout_s
            elif time.monotonic() > stall_deadline:
                raise ReproError(
                    f"supervised fleet stalled: {fe._outstanding_total()} "
                    "requests outstanding with no progress"
                )
        collected.extend(rejected)
        by_id = {r.request_id: r for r in collected}
        return [by_id[r.request_id] for r in requests if r.request_id in by_id]

    def stabilize(self, max_ticks: int = 1000) -> dict:
        """Tick until every non-quarantined worker is back up (capacity
        recovered) or the tick budget runs out; returns :meth:`capacity`."""
        for _ in range(max_ticks):
            cap = self.capacity()
            if cap["recovered"] and not self.pending_restarts():
                return cap
            self.tick(None if self._sim else 0.05)
        return self.capacity()

    # -- graceful drain -------------------------------------------------
    def drain(self, worker_id: str) -> dict:
        """Planned ring change: finish ``worker_id``'s in-flight work,
        hand off its warm state to each key's new owner, then remove it.

        Returns a report with the handoff counts and the lost/duplicated
        tallies (both asserted zero against the outstanding ledger and
        the response log).
        """
        fe = self.frontend
        if worker_id not in fe.workers:
            raise ReproError(f"unknown worker {worker_id}")
        if not fe._alive(worker_id):
            raise ReproError(f"cannot drain dead worker {worker_id}")
        alive = [w for w in fe.workers if fe._alive(w)]
        if len(alive) < 2:
            raise ReproError("cannot drain the last live worker")
        owned = fe.owned_topologies(worker_id)
        in_flight = set(fe._outstanding[worker_id])
        # Request ids may legitimately repeat across serve() waves, so the
        # exactly-once ledger below is a delta from this pre-drain count.
        before: dict[str, int] = {rid: 0 for rid in in_flight}
        for resp in fe._responses:
            if resp.request_id in before:
                before[resp.request_id] += 1
        with fe.tracer.span(
            "fleet.drain", cat="fleet", worker=worker_id, in_flight=len(in_flight)
        ):
            # New submissions route elsewhere from here on; the worker
            # itself keeps running until its ledger is empty.
            fe.ring.remove(worker_id)
            deadline = time.monotonic() + fe.config.response_timeout_s
            while fe._outstanding[worker_id]:
                fe.poll(timeout=0.05)
                if time.monotonic() > deadline:
                    raise ReproError(
                        f"drain of {worker_id} stalled with "
                        f"{len(fe._outstanding[worker_id])} outstanding"
                    )
                if not fe._alive(worker_id):
                    # Died mid-drain: failover already rerouted its work;
                    # nothing left to hand off from the corpse.
                    break
            handoff = {"topologies": 0, "warm_entries": 0}
            if fe._alive(worker_id) and owned:
                by_target: dict[str, set[str]] = {}
                for key in sorted(owned):
                    by_target.setdefault(fe.ring.route(key), set()).add(key)
                for target in sorted(by_target):
                    got = fe.handoff_state(worker_id, target, by_target[target])
                    for k in handoff:
                        handoff[k] += got[k]
            fe.remove_worker(worker_id)
        self.health.pop(worker_id, None)
        # Ledger assertions: every request that was in flight on the
        # drained worker is answered (or rerouted and still outstanding),
        # and none was answered twice.
        answered: dict[str, int] = {rid: -n for rid, n in before.items()}
        for resp in fe._responses:
            if resp.request_id in answered:
                answered[resp.request_id] += 1
        still_out = {
            rid for ledger in fe._outstanding.values() for rid in ledger
        }
        lost = sorted(
            rid
            for rid in in_flight
            if answered[rid] == 0 and rid not in still_out
        )
        duplicated = sorted(rid for rid in in_flight if answered[rid] > 1)
        if lost or duplicated:
            raise ReproError(
                f"drain of {worker_id} violated exactly-once: "
                f"lost={lost} duplicated={duplicated}"
            )
        fe.metrics.counter("fleet.drain.count").inc()
        fe.metrics.counter("fleet.drain.handoff_entries").inc(
            handoff["warm_entries"]
        )
        return {
            "worker": worker_id,
            "finished": len(in_flight),
            "handoff": handoff,
            "lost": 0,
            "duplicated": 0,
        }

    def snapshot(self) -> dict:
        """Supervisor state for reports: health per worker + capacity."""
        return {
            "capacity": self.capacity(),
            "quarantined": sorted(self.quarantined()),
            "health": {wid: h.as_dict() for wid, h in sorted(self.health.items())},
        }
