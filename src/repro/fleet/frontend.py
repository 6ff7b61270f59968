"""The fleet frontend: topology-affinity routing over a worker pool.

:class:`FleetFrontend` is the single submission surface of a horizontally
sharded serving fleet.  Each request is routed by the consistent-hash
ring (:mod:`repro.fleet.routing`) on its ``topology_key()``, so all
requests for one feeder land on one worker and that worker's plan
and warm-start cache stay hot.  Around the ring sit the resilience
pieces reused from :mod:`repro.resilience`:

* a per-worker :class:`~repro.resilience.CircuitBreaker` — a worker that
  keeps failing is skipped in routing until its recovery window passes;
* *spill*: when a key's preferred worker has a full queue, the request
  walks the key's ring preference order to the next candidate (affinity
  lost, request saved);
* structured backpressure: when every candidate is full, submission
  fails with a :class:`FleetSaturatedError`-carrying rejection whose
  ``retry_after_s`` is the minimum backoff hint across the fleet;
* failover: a dead worker is removed from the ring and every request it
  had accepted but not completed is re-routed to the survivors — no
  accepted request is ever dropped.

Two worker transports, one protocol (see :mod:`repro.fleet.worker`):
``sim`` steps in-process workers deterministically; ``process`` runs real
``multiprocessing`` workers and detects genuinely dead processes.  The
mode decides only which worker class and response queue the frontend
builds; everything else reads the same worker messages either way.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import time
from dataclasses import dataclass, replace
from functools import partial

from repro.fleet.routing import DEFAULT_REPLICAS, HashRing
from repro.fleet.worker import (
    CTRL_EXPORT,
    CTRL_IMPORT,
    WORKER_BATCH,
    WORKER_DONE,
    WORKER_HEARTBEAT,
    WORKER_READY,
    WORKER_STATE,
    LocalQueue,
    ProcessWorker,
    SimWorker,
    WorkerQueueFull,
    WorkerSpec,
)
from repro.resilience.faults import FaultPlan
from repro.resilience.policy import CircuitBreaker
from repro.serve.requests import (
    STATUS_ERROR,
    STATUS_REJECTED,
    OPFRequest,
    OPFResponse,
)
from repro.telemetry import MetricsRegistry, NULL_TRACER
from repro.utils.exceptions import ReproError

MODE_SIM = "sim"
MODE_PROCESS = "process"


class FleetSaturatedError(ReproError):
    """Every candidate worker for a request's topology was full (or dead).

    Attributes
    ----------
    topology_key:
        The key that could not be placed.
    retry_after_s:
        Minimum backoff hint across the rejecting workers (0.0 when no
        worker had an estimate).
    queue_depths:
        ``{worker_id: depth}`` of the rejecting workers at rejection time.
    """

    def __init__(self, topology_key: str, retry_after_s: float, queue_depths: dict):
        self.topology_key = topology_key
        self.retry_after_s = max(0.0, float(retry_after_s))
        self.queue_depths = dict(queue_depths)
        super().__init__(
            f"fleet saturated for topology {topology_key}: all "
            f"{len(self.queue_depths)} candidate workers full; "
            f"retry in {self.retry_after_s:.3f}s"
        )


@dataclass(frozen=True)
class FleetConfig:
    """Shape of the fleet: worker count, mode, and per-worker engine knobs.

    ``mode`` is :data:`MODE_SIM` (in-process, deterministic) or
    :data:`MODE_PROCESS` (real ``multiprocessing`` workers).
    ``response_timeout_s`` bounds how long the frontend waits for *any*
    progress before declaring the fleet stalled.
    """

    n_workers: int = 2
    mode: str = MODE_SIM
    max_batch: int = 16
    queue_size: int = 256
    cache_capacity: int = 64
    warm_start: bool = True
    backend: str | None = None
    precision: str | None = None
    replicas: int = DEFAULT_REPLICAS
    breaker_failure_threshold: int = 5
    breaker_recovery_s: float = 30.0
    response_timeout_s: float = 120.0
    heartbeat_interval_s: float = 1.0

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        if self.mode not in (MODE_SIM, MODE_PROCESS):
            raise ValueError(f"unknown fleet mode {self.mode!r}")
        if self.response_timeout_s <= 0:
            raise ValueError("response_timeout_s must be positive")

    def worker_ids(self) -> list[str]:
        return [f"w{i}" for i in range(self.n_workers)]

    def spec_for(self, worker_id: str, fault_plan: FaultPlan | None) -> WorkerSpec:
        crash_after = (
            fault_plan.worker_crash_after(worker_id) if fault_plan is not None else None
        )
        return WorkerSpec(
            worker_id=worker_id,
            max_batch=self.max_batch,
            queue_size=self.queue_size,
            cache_capacity=self.cache_capacity,
            warm_start=self.warm_start,
            backend=self.backend,
            precision=self.precision,
            crash_after_served=crash_after,
            heartbeat_interval_s=self.heartbeat_interval_s,
        )


class FleetFrontend:
    """Routing, failover and backpressure over a pool of engine workers.

    Parameters
    ----------
    config:
        Fleet shape and per-worker engine settings.
    tracer:
        Optional :class:`repro.telemetry.Tracer`; sim-mode workers share
        it (their engine spans land in the same trace), and the frontend
        adds ``fleet.*`` routing/poll spans either way.
    fault_plan:
        Seeded :class:`~repro.resilience.FaultPlan`; its
        :class:`~repro.resilience.WorkerCrash` specs become per-worker
        crash points (chaos testing the failover path).
    clock:
        Injectable monotonic clock for the per-worker breakers.

    Examples
    --------
    >>> from repro.fleet import FleetConfig, FleetFrontend
    >>> from repro.serve import OPFRequest
    >>> fleet = FleetFrontend(FleetConfig(n_workers=2))
    >>> reqs = [OPFRequest(request_id=f"s{i}", load_scale=1 + 0.01 * i)
    ...         for i in range(4)]
    >>> [r.status for r in fleet.serve(reqs)] == ["converged"] * 4
    True
    """

    def __init__(
        self,
        config: FleetConfig | None = None,
        tracer=None,
        fault_plan: FaultPlan | None = None,
        clock=time.monotonic,
    ):
        self.config = config if config is not None else FleetConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.fault_plan = fault_plan
        self._clock = clock
        self.metrics = MetricsRegistry()
        self.ring = HashRing(self.config.worker_ids(), replicas=self.config.replicas)
        self.breakers = {
            wid: CircuitBreaker(
                failure_threshold=max(1, self.config.breaker_failure_threshold),
                recovery_s=self.config.breaker_recovery_s,
                clock=clock,
            )
            for wid in self.config.worker_ids()
        }
        self._breakers_enabled = self.config.breaker_failure_threshold > 0
        #: worker_id -> {request_id: OPFRequest} accepted but not completed.
        self._outstanding: dict[str, dict[str, OPFRequest]] = {
            wid: {} for wid in self.config.worker_ids()
        }
        self._submit_time: dict[str, float] = {}
        self._dead_handled: set[str] = set()
        self._responses: list[OPFResponse] = []
        self._latency = self.metrics.histogram("fleet.latency_s")
        #: worker_id -> BATCH stats summed over every incarnation.
        self._worker_stats = {
            wid: {"worker.busy_cpu_s": 0.0, "worker.busy_wall_s": 0.0, "worker.served": 0}
            for wid in self.config.worker_ids()
        }
        #: worker_id -> moving average of its BATCH wall time: the
        #: retry hint of a full worker (0.0 = no batch served yet).
        self._batch_wall_s = dict.fromkeys(self.config.worker_ids(), 0.0)
        self._final_snapshots: dict[str, dict] = {}
        #: topology_key -> feeder of every request ever routed; the rewarm
        #: path uses it to know which topologies a worker's ring slice owns
        #: (and which feeder rebuilds each plan).
        self._topologies: dict[str, str] = {}
        #: worker_id -> clock time of the last liveness signal: stamped on
        #: every worker message (the sim supervisor re-stamps it on its
        #: virtual clock).
        self.last_heartbeat: dict[str, float] = {}
        self._ready: set[str] = set()
        self._state_replies: dict[str, dict] = {}
        self._closed = False

        # The one mode decision: which worker class posts onto which queue.
        if self.config.mode == MODE_PROCESS:
            ctx = multiprocessing.get_context()
            self._response_q = ctx.Queue()
            self._spawn = partial(ProcessWorker, ctx=ctx, response_q=self._response_q)
        else:
            self._response_q = LocalQueue()
            self._spawn = partial(
                SimWorker, response_q=self._response_q, tracer=self.tracer
            )
        self.workers: dict = {
            wid: self._spawn(self.config.spec_for(wid, fault_plan))
            for wid in self.config.worker_ids()
        }
        self._await(self.workers, self._ready, "READY")

    # -- lifecycle ------------------------------------------------------
    def _await(self, wids, replied, what: str) -> None:
        """Block until every worker in ``wids`` is in ``replied`` (a set or
        dict that :meth:`_dispatch` fills).  Other worker messages arriving
        meanwhile — batches, heartbeats, deaths of *other* workers — are
        dispatched normally rather than dropped, so a restart's ready-wait
        or a rewarm's state-wait can never lose responses."""
        deadline = time.monotonic() + self.config.response_timeout_s
        while pending := sorted(w for w in wids if w not in replied):
            dead = [w for w in pending if not self._alive(w)]
            if dead:
                raise ReproError(f"fleet workers {dead} died awaiting {what}")
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                raise ReproError(f"fleet workers {pending} never sent {what}")
            try:
                self._dispatch(*self._response_q.get(timeout=min(0.25, timeout)))
            except queue_mod.Empty:
                continue

    def close(self) -> None:
        """Shut the fleet down; answers any still-outstanding request with
        an ``error`` response so callers are never left hanging.  A second
        ``close`` is a no-op."""
        if self._closed:
            return
        self._closed = True
        for worker in self.workers.values():
            worker.shutdown()
        # Collect the final snapshots the workers managed to send.
        self._drain_response_q(timeout=0.0)
        self._response_q.close()
        for wid in sorted(self._outstanding):
            for req in list(self._outstanding[wid].values()):
                self._finalize(
                    wid,
                    OPFResponse(
                        request_id=req.request_id,
                        status=STATUS_ERROR,
                        error=f"fleet closed with request outstanding on {wid}",
                    ),
                )

    def __enter__(self) -> "FleetFrontend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission -----------------------------------------------------
    def _alive(self, wid: str) -> bool:
        return self.workers[wid].alive

    def _candidates(self, key: str) -> list[str]:
        """Ring preference for ``key``, filtered to live workers with a
        non-open breaker (an open breaker is *skipped*, not fatal — the
        request spills to the next preference, trading affinity for
        availability)."""
        order = []
        for wid in self.ring.preference(key):
            if not self._alive(wid):
                continue
            if self._breakers_enabled and not self.breakers[wid].allow():
                continue
            order.append(wid)
        return order

    def submit(self, request: OPFRequest) -> OPFResponse | None:
        """Route and enqueue one request.

        Returns ``None`` when a worker accepted it, or a ``rejected``
        :class:`OPFResponse` when the fleet is saturated for this
        topology (every live candidate's queue full).
        """
        self.metrics.counter("fleet.submitted").inc()
        key = request.topology_key()
        self._topologies[key] = request.feeder
        with self.tracer.span("fleet.route", cat="fleet", topology=key):
            candidates = self._candidates(key)
        depths: dict[str, int] = {}
        hints: list[float] = []
        for rank, wid in enumerate(candidates):
            try:
                self._enqueue(wid, request)
            except WorkerQueueFull as exc:
                depths[wid] = exc.queue_depth
                hints.append(exc.retry_after_s)
                self.metrics.counter("fleet.spilled").inc()
                continue
            self.metrics.counter("fleet.accepted").inc()
            if rank > 0 or wid != self.ring.route(key):
                self.metrics.counter("fleet.affinity_miss").inc()
            self._outstanding[wid][request.request_id] = request
            self._submit_time[request.request_id] = time.perf_counter()
            self._gauge_depths()
            return None
        self.metrics.counter("fleet.rejected").inc()
        exc = FleetSaturatedError(
            key, min((h for h in hints if h > 0), default=0.0), depths
        )
        return OPFResponse(
            request_id=request.request_id, status=STATUS_REJECTED, error=str(exc)
        )

    def _enqueue(self, wid: str, request: OPFRequest) -> None:
        # The ledger is the depth bound: outstanding == queued + in
        # flight, which is the quantity backpressure should bound (a
        # mp.Queue has no useful cross-process length anyway).
        depth = len(self._outstanding[wid])
        if depth >= self.config.queue_size:
            raise WorkerQueueFull(
                wid, depth, self.config.queue_size, self._batch_wall_s[wid]
            )
        self.workers[wid].send(request)

    def _gauge_depths(self) -> None:
        for wid in self.workers:
            self.metrics.gauge(f"fleet.queue_depth.{wid}").set(
                len(self._outstanding[wid])
            )
        self.metrics.gauge("fleet.workers_alive").set(
            sum(1 for wid in self.workers if self._alive(wid))
        )

    # -- completion -----------------------------------------------------
    def _finalize(self, wid: str, response: OPFResponse) -> bool:
        """Record one worker response; returns False for duplicates.

        A response counts only while its request id is still outstanding
        somewhere — the first answer wins and retires the id, so the late
        twin of a re-routed request (its original worker got the batch
        out just before dying) is dropped, while a *reused* request id in
        a later ``serve`` call is a fresh outstanding entry and completes
        normally.
        """
        rid = response.request_id
        outstanding = any(rid in ledger for ledger in self._outstanding.values())
        if not outstanding:
            return False
        for ledger in self._outstanding.values():
            ledger.pop(rid, None)
        t0 = self._submit_time.pop(rid, None)
        if t0 is not None:
            self._latency.observe(time.perf_counter() - t0)
        if self._breakers_enabled and wid in self.breakers:
            if response.status == STATUS_ERROR:
                self.breakers[wid].record_failure()
            else:
                self.breakers[wid].record_success()
        self._responses.append(response)
        return True

    def _reroute(self, recovered: list[OPFRequest]) -> None:
        """Re-route a dead worker's accepted-but-unserved requests to the
        survivors, in their original order, by the post-removal ring:
        each survivor adopts its share as one ordered list."""
        shares: dict[str, list[OPFRequest]] = {}
        for req in recovered:
            target = self.ring.route(req.topology_key())
            shares.setdefault(target, []).append(req)
            self._outstanding[target][req.request_id] = req
            self.metrics.counter("fleet.rerouted").inc()
        for target, share in shares.items():
            self.workers[target].adopt(share)

    def _handle_deaths(self) -> None:
        """Detect newly dead workers; remove them from the ring and fail
        over their outstanding requests (or error them out when no
        survivor is left)."""
        for wid in sorted(self.workers):
            if self._alive(wid) or wid in self._dead_handled:
                continue
            self._dead_handled.add(wid)
            self.metrics.counter("fleet.worker_deaths").inc()
            survivors = [
                w for w in self.workers if w != wid and self._alive(w)
            ]
            # Everything accepted but unanswered: queued in the dead
            # worker, or in flight when it died.
            recovered = list(self._outstanding[wid].values())
            if survivors:
                self._outstanding[wid] = {}
                self.ring.remove(wid)
                with self.tracer.span(
                    "fleet.failover", cat="fleet", worker=wid, rerouted=len(recovered)
                ):
                    self._reroute(recovered)
            else:
                # Total fleet loss: nothing to route to — answer honestly.
                # (_finalize pops each id off the dead worker's ledger.)
                for req in recovered:
                    self._finalize(
                        wid,
                        OPFResponse(
                            request_id=req.request_id,
                            status=STATUS_ERROR,
                            error=f"worker {wid} died with no survivors",
                        ),
                    )
                self._outstanding[wid] = {}
        self._gauge_depths()

    # -- draining -------------------------------------------------------
    def _outstanding_total(self) -> int:
        return sum(len(ledger) for ledger in self._outstanding.values())

    def poll(self, timeout: float = 0.0) -> list[OPFResponse]:
        """One progress round; returns responses completed during it.

        Every worker steps in sorted order (a sim worker serves one
        batch, so interleavings are deterministic; a process worker's
        step is a no-op) and its messages are dispatched right after its
        step.  Then the response queue is drained, waiting up to
        ``timeout`` seconds for the first message (a sim queue never
        waits), and dead workers are failed over.
        """
        before = len(self._responses)
        with self.tracer.span("fleet.poll", cat="fleet"):
            for wid in sorted(self.workers):
                if self.workers[wid].step():
                    self._drain_response_q(timeout=0.0)
            self._drain_response_q(timeout)
            self._handle_deaths()
        return self._responses[before:]

    def _drain_response_q(self, timeout: float) -> None:
        """Pull worker messages: block up to ``timeout`` for the first,
        then sweep whatever else is immediately available."""
        block = timeout > 0
        while True:
            try:
                if block:
                    kind, wid, payload = self._response_q.get(timeout=timeout)
                    block = False
                else:
                    kind, wid, payload = self._response_q.get_nowait()
            except queue_mod.Empty:
                return
            self._dispatch(kind, wid, payload)

    def _dispatch(self, kind: str, wid: str, payload) -> None:
        """Route one worker message to its handler (single place every
        drain loop — poll, ready-wait, state-wait, close — goes through,
        so no loop can drop a message kind it did not expect).  Every
        message is a liveness signal."""
        self.last_heartbeat[wid] = self._clock()
        if kind == WORKER_BATCH:
            responses, stats = payload
            for k, v in stats.items():
                self._worker_stats[wid][f"worker.{k}"] += v
            # The engine queue's backpressure estimate, kept per worker id.
            wall = self._batch_wall_s[wid]
            self._batch_wall_s[wid] = (
                stats["busy_wall_s"] if wall == 0.0
                else 0.8 * wall + 0.2 * stats["busy_wall_s"]
            )
            for resp in responses:
                self._finalize(wid, resp)
        elif kind == WORKER_HEARTBEAT:
            self.metrics.counter("fleet.heartbeat.received").inc()
        elif kind == WORKER_STATE:
            self._state_replies[wid] = payload
        elif kind == WORKER_DONE:
            self._final_snapshots[wid] = payload
        elif kind == WORKER_READY:
            self._ready.add(wid)

    def run(self) -> list[OPFResponse]:
        """Drive the fleet until every accepted request is answered;
        returns the responses produced by this call."""
        before = len(self._responses)
        deadline = time.monotonic() + self.config.response_timeout_s
        while self._outstanding_total() > 0:
            if self.poll(timeout=0.25):
                deadline = time.monotonic() + self.config.response_timeout_s
            elif time.monotonic() > deadline:
                raise ReproError(
                    f"fleet stalled: {self._outstanding_total()} requests "
                    f"outstanding with no progress for "
                    f"{self.config.response_timeout_s:.0f}s"
                )
        return self._responses[before:]

    def serve(self, requests: list[OPFRequest]) -> list[OPFResponse]:
        """Submit everything, run to completion, return responses in
        submission order (rejections included)."""
        rejected: list[OPFResponse] = []
        for req in requests:
            resp = self.submit(req)
            if resp is not None:
                rejected.append(resp)
        by_id = {r.request_id: r for r in self.run() + rejected}
        return [by_id[r.request_id] for r in requests if r.request_id in by_id]

    # -- introspection --------------------------------------------------
    @property
    def responses(self) -> list[OPFResponse]:
        """Every response completed over this frontend's lifetime."""
        return list(self._responses)

    def assignment(self, requests: list[OPFRequest]) -> dict[str, str]:
        """Current ``{request_id: worker_id}`` routing of ``requests``."""
        return {r.request_id: self.ring.route(r.topology_key()) for r in requests}

    def kill_worker(self, worker_id: str) -> None:
        """Chaos hook: fail-stop one worker now (sim: flag flip; process:
        SIGTERM).  The next poll detects the death and fails over.

        Idempotent: killing an already-dead worker is a no-op, so a
        supervisor race (worker crashed between its health check and the
        kill) cannot double-trigger death handling."""
        self.workers[worker_id].kill()

    # -- restart / rewarm / drain hooks ---------------------------------
    def restart_worker(
        self, worker_id: str, crash_after_served: int | None = None
    ) -> None:
        """Replace a dead worker with a fresh incarnation under the same
        id and return its vnodes to the ring.

        The new worker starts cold (empty caches — :meth:`rewarm_worker`
        refills them) with a clean breaker and a cleared death record, so
        a later death of the same id is detected and handled again.
        ``crash_after_served`` seeds the *next* incarnation's chaos crash
        point (a crash-looping worker in the soak tests).
        """
        worker = self.workers[worker_id]
        if worker.alive:
            raise ReproError(f"worker {worker_id} is alive; kill or drain it first")
        spec = replace(
            self.config.spec_for(worker_id, None),
            crash_after_served=crash_after_served,
        )
        worker.shutdown()  # reap the corpse + close its request queue
        self._ready.discard(worker_id)
        self.workers[worker_id] = self._spawn(spec)
        self._await({worker_id}, self._ready, "READY")
        self.ring.add(worker_id)
        self._dead_handled.discard(worker_id)
        self._outstanding.setdefault(worker_id, {})
        self.breakers[worker_id] = CircuitBreaker(
            failure_threshold=max(1, self.config.breaker_failure_threshold),
            recovery_s=self.config.breaker_recovery_s,
            clock=self._clock,
        )
        self.last_heartbeat[worker_id] = self._clock()
        self.metrics.counter("fleet.restart.count").inc()
        self._gauge_depths()

    def owned_topologies(self, worker_id: str) -> set[str]:
        """Topology keys the current ring assigns to ``worker_id``, out
        of every topology this frontend has ever routed."""
        return {
            key for key in self._topologies if self.ring.route(key) == worker_id
        }

    def rewarm_worker(self, worker_id: str) -> dict:
        """Refill a (restarted) worker's caches for the topologies it owns.

        For each owned topology key the donor is the next *alive* worker
        in the key's ring preference — exactly where failover sent that
        key's traffic during the outage, so the donor holds the freshest
        warm-start states.  The worker builds each key's plan itself.
        Returns aggregate counts.
        """
        counts = {"topologies": 0, "warm_entries": 0}
        donors: dict[str, set[str]] = {}
        for key in sorted(self.owned_topologies(worker_id)):
            for cand in self.ring.preference(key):
                if cand != worker_id and cand in self.workers and self._alive(cand):
                    donors.setdefault(cand, set()).add(key)
                    break
        with self.tracer.span(
            "fleet.rewarm", cat="fleet", worker=worker_id, donors=len(donors)
        ):
            for donor in sorted(donors):
                payload = self._control(donor, CTRL_EXPORT, donors[donor])
                imported = self._control(worker_id, CTRL_IMPORT, payload)
                for k in counts:
                    counts[k] += imported[k]
        self.metrics.counter("fleet.rewarm.topologies").inc(counts["topologies"])
        self.metrics.counter("fleet.rewarm.warm_entries").inc(counts["warm_entries"])
        return counts

    def handoff_state(self, from_wid: str, to_wid: str, keys: set[str]) -> dict:
        """Copy warm state for ``keys`` from one live worker to another
        (the graceful-drain path: the leaving worker is the donor)."""
        if not keys:
            return {"topologies": 0, "warm_entries": 0}
        payload = self._control(from_wid, CTRL_EXPORT, set(keys))
        return self._control(to_wid, CTRL_IMPORT, payload)

    def remove_worker(self, worker_id: str) -> None:
        """Forget a worker entirely (the end of a graceful drain).

        The worker must have nothing outstanding; its vnodes must already
        be off the ring (``ring.remove``) or are removed here.
        """
        if self._outstanding.get(worker_id):
            raise ReproError(
                f"worker {worker_id} still has "
                f"{len(self._outstanding[worker_id])} outstanding requests"
            )
        if worker_id in self.ring.workers():
            self.ring.remove(worker_id)
        self.workers.pop(worker_id).shutdown()
        self._drain_response_q(timeout=0.0)
        self._outstanding.pop(worker_id, None)
        self.breakers.pop(worker_id, None)
        self._dead_handled.discard(worker_id)
        self.last_heartbeat.pop(worker_id, None)
        self.metrics.gauge(f"fleet.queue_depth.{worker_id}").set(0)
        self._gauge_depths()

    def _control(self, wid: str, verb: str, arg) -> dict:
        """Send one control verb and wait for the worker's STATE reply."""
        self.workers[wid].send_control(verb, arg)
        self._await({wid}, self._state_replies, "STATE")
        return self._state_replies.pop(wid)

    def snapshot(self) -> dict:
        """Fleet-level metrics plus one entry per worker, the same schema
        in both modes: ``worker.served`` / ``worker.busy_cpu_s`` /
        ``worker.busy_wall_s`` summed from its BATCH stats over every
        incarnation, ``worker.alive`` (up now, or shut down cleanly by
        :meth:`close`), and the engine snapshot once its DONE arrived."""
        snap = self.metrics.snapshot()
        snap["workers"] = {
            wid: {
                **self._worker_stats[wid],
                "worker.alive": self._alive(wid) or wid in self._final_snapshots,
                **self._final_snapshots.get(wid, {}),
            }
            for wid in sorted(self.workers)
        }
        return snap
