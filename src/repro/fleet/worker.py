"""Fleet workers: one :class:`~repro.serve.ScenarioEngine` per worker.

Both worker classes speak one protocol to the frontend.  A worker posts
``(kind, worker_id, payload)`` messages onto the fleet's response queue:
:data:`WORKER_READY` once its engine is built, one :data:`WORKER_BATCH`
``(responses, stats)`` per served batch, one :data:`WORKER_STATE` reply
per control verb (:data:`CTRL_EXPORT` / :data:`CTRL_IMPORT`) and
:data:`WORKER_DONE` with its engine snapshot on a clean shutdown.  The
frontend drives both through the same methods: ``send``, ``adopt``,
``send_control``, ``step``, ``kill``, ``shutdown`` and ``alive``.

:class:`SimWorker`
    In-process and fully deterministic: its engine serves one batch per
    :meth:`SimWorker.step`, posting onto a :class:`LocalQueue`, so
    interleavings, crash points and failover are reproducible by
    construction.  This is what the fleet tests and the CI smoke jobs
    run.
:class:`ProcessWorker`
    A real ``multiprocessing`` process running :func:`_worker_main`:
    the engine lives in the child, requests cross the boundary as plain
    dicts, messages come back over a ``multiprocessing.Queue``, and death
    is an actual dead process.  ``step`` is a no-op: the child serves on
    its own.  This is the mode the scaling benchmark measures.

A worker crash (from a seeded :class:`~repro.resilience.WorkerCrash`
spec) is always *fail-stop at a batch boundary after ``after_served``
completed requests*: the worker stops without answering what it holds.
The frontend's outstanding ledger still lists every accepted-but-unserved
request, so it recovers them the same way in both modes.
"""

from __future__ import annotations

import os
import queue as queue_mod
import time
from dataclasses import dataclass

from repro.resilience.policy import ResilienceConfig
from repro.serve.engine import ScenarioEngine
from repro.serve.requests import STATUS_ERROR, OPFRequest, OPFResponse
from repro.utils.exceptions import ReproError

#: Control-plane message kinds on the shared response queue.
WORKER_READY = "__ready__"
WORKER_BATCH = "__batch__"
WORKER_DONE = "__done__"
WORKER_HEARTBEAT = "__heartbeat__"
WORKER_STATE = "__state__"

#: Parent -> child control verbs (first element of a tuple on the
#: request queue; plain request dicts are the data plane).
CTRL_EXPORT = "__export__"
CTRL_IMPORT = "__warm__"

#: Exit code of a chaos-crashed worker process (distinguishes the
#: deliberate fail-stop from a Python traceback's exit 1 in CI logs).
CRASH_EXIT_CODE = 17


class WorkerQueueFull(ReproError):
    """A worker already holds ``queue_size`` outstanding requests.

    The frontend catches this and *spills* the request to the next worker
    in the key's ring preference order; it surfaces to callers only when
    every candidate is full (as a :class:`~repro.fleet.frontend.
    FleetSaturatedError`-flavoured rejection).

    Attributes
    ----------
    worker_id / queue_depth / maxsize / retry_after_s:
        Which queue, how full, and the worker's current backoff hint
        (never negative, 0.0 = no estimate yet).
    """

    def __init__(
        self, worker_id: str, queue_depth: int, maxsize: int, retry_after_s: float = 0.0
    ):
        self.worker_id = worker_id
        self.queue_depth = int(queue_depth)
        self.maxsize = int(maxsize)
        self.retry_after_s = max(0.0, float(retry_after_s))
        super().__init__(
            f"worker {worker_id} queue full "
            f"({self.queue_depth}/{self.maxsize} waiting); "
            f"retry in {self.retry_after_s:.3f}s"
        )


@dataclass(frozen=True)
class WorkerSpec:
    """Pickle-safe recipe for one worker's engine (crosses the process
    boundary as the only argument of :func:`_worker_main`).

    ``crash_after_served`` is the seeded chaos hook: ``None`` means never
    crash; ``k`` means fail-stop at the first batch boundary at which at
    least ``k`` requests have completed (``0`` = before serving anything).
    ``backend`` is a registry *name* (never an instance — instances do
    not pickle and each process must build its own arrays anyway).

    ``heartbeat_interval_s`` is how long a process worker's blocking get
    waits before posting a :data:`WORKER_HEARTBEAT` instead — the idle
    liveness signal the supervisor watches.  ``hang_on_shutdown`` is a
    test hook: the child ignores the shutdown sentinel, forcing
    :meth:`ProcessWorker.shutdown` to escalate to ``terminate()``.
    """

    worker_id: str
    max_batch: int = 16
    queue_size: int = 256
    cache_capacity: int = 64
    warm_start: bool = True
    backend: str | None = None
    precision: str | None = None
    crash_after_served: int | None = None
    heartbeat_interval_s: float = 1.0
    hang_on_shutdown: bool = False

    def __post_init__(self) -> None:
        if not self.worker_id:
            raise ValueError("worker_id must be nonempty")
        if self.crash_after_served is not None and self.crash_after_served < 0:
            raise ValueError("crash_after_served must be nonnegative")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")

    def build_engine(self, tracer=None) -> ScenarioEngine:
        # Per-topology breakers stay off inside fleet workers: the fleet
        # runs *per-worker* breakers at the frontend, and a worker-local
        # one would double-reject during failover storms.
        return ScenarioEngine(
            max_batch=self.max_batch,
            queue_size=self.queue_size,
            cache_capacity=self.cache_capacity,
            warm_start=self.warm_start,
            backend=self.backend,
            precision=self.precision,
            tracer=tracer,
            resilience=ResilienceConfig(breaker_failure_threshold=0),
        )


def _answer_control(response_q, worker_id: str, engine: ScenarioEngine, verb: str,
                    arg) -> None:
    """Post a worker's :data:`WORKER_STATE` reply to one control verb."""
    if verb == CTRL_EXPORT:
        payload = engine.export_topology_state(arg)
    elif verb == CTRL_IMPORT:
        payload = engine.import_topology_state(arg)
    else:
        # A verb this worker build doesn't know (version skew during a
        # rolling restart): answer with an error payload instead of
        # leaving the parent's collect loop to time out.
        payload = {"error": f"unknown control verb {verb!r}"}
    response_q.put((WORKER_STATE, worker_id, payload))


def _post_batch(response_q, worker_id: str, responses: list, t_cpu: float,
                t_wall: float) -> None:
    """Post one :data:`WORKER_BATCH`: the responses plus the batch's busy
    CPU and wall seconds since ``t_cpu`` / ``t_wall``."""
    stats = {
        "busy_cpu_s": time.process_time() - t_cpu,
        "busy_wall_s": time.perf_counter() - t_wall,
        "served": len(responses),
    }
    response_q.put((WORKER_BATCH, worker_id, (responses, stats)))


class LocalQueue(queue_mod.SimpleQueue):
    """In-process stand-in for the fleet's ``multiprocessing.Queue`` whose
    ``get`` never blocks: sim workers post from inside the frontend's own
    calls, so nothing could arrive while it waited."""

    def get(self, block: bool = True, timeout: float | None = None):
        return super().get(block=False)

    def close(self) -> None:
        """Nothing to release."""


class SimWorker:
    """Deterministic in-process worker: serves one batch per :meth:`step`
    and posts the process worker's messages onto ``response_q``."""

    def __init__(self, spec: WorkerSpec, response_q, tracer=None):
        self.spec = spec
        self.worker_id = spec.worker_id
        self.response_q = response_q
        self.engine = spec.build_engine(tracer=tracer)
        self.alive = True
        self.served = 0
        response_q.put((WORKER_READY, self.worker_id, None))

    def send(self, request: OPFRequest) -> None:
        """Queue one routed request.  The frontend's ledger bounds the
        queue, but it counts request ids, so a reused id can still fill
        the engine; that rejection is posted like any other answer."""
        rejection = self.engine.submit(request)
        if rejection is not None:
            now_cpu, now_wall = time.process_time(), time.perf_counter()
            _post_batch(self.response_q, self.worker_id, [rejection], now_cpu, now_wall)

    def adopt(self, requests: list[OPFRequest]) -> None:
        """Take over a dead worker's requests, in order, ahead of the queue."""
        self.engine.adopt(requests)

    def send_control(self, verb: str, arg) -> None:
        _answer_control(self.response_q, self.worker_id, self.engine, verb, arg)

    def step(self) -> bool:
        """Serve one batch and post it; ``False`` when idle or dead.

        The seeded crash point fires only when a batch is waiting: the
        worker flips dead without serving it, and the frontend recovers
        everything it held from the outstanding ledger.
        """
        if not self.alive or not len(self.engine.queue):
            return False
        crash_at = self.spec.crash_after_served
        if crash_at is not None and self.served >= crash_at:
            self.alive = False
            return False
        t_cpu, t_wall = time.process_time(), time.perf_counter()
        responses = self.engine.step()
        self.served += len(responses)
        _post_batch(self.response_q, self.worker_id, responses, t_cpu, t_wall)
        return True

    def kill(self) -> None:
        """Fail-stop now; like a crashed process, it posts no snapshot."""
        self.alive = False

    def shutdown(self) -> None:
        """Post the engine snapshot (:data:`WORKER_DONE`) and stop serving;
        a no-op on a dead worker."""
        if self.alive:
            self.alive = False
            self.response_q.put((WORKER_DONE, self.worker_id, self.engine.snapshot()))


def _worker_main(spec: WorkerSpec, request_q, response_q) -> None:
    """Process-worker entry point (module-level so it pickles).

    Posts the protocol of the module docstring: ``WORKER_READY`` once
    the engine is built, ``(WORKER_BATCH, worker_id, (responses,
    stats))`` per served micro-batch, ``(WORKER_HEARTBEAT, worker_id,
    served)`` whenever the blocking get idles past
    ``heartbeat_interval_s``, ``WORKER_STATE`` in reply to a control
    tuple and ``WORKER_DONE`` with the engine snapshot on clean shutdown.
    The parent sends request dicts, control tuples ``(verb, arg)`` and
    ``None`` as the shutdown sentinel.

    The loop blocks for the first request, then greedily drains up to
    ``max_batch - 1`` more without blocking — the micro-batching that
    turns a stream of singletons into stacked solves on an idle fleet
    while still filling batches under load.
    """
    engine = spec.build_engine()
    response_q.put((WORKER_READY, spec.worker_id, None))
    served = 0
    crash_at = spec.crash_after_served
    while True:
        if crash_at is not None and served >= crash_at:
            # Seeded fail-stop: no drain, no goodbye — the parent sees a
            # dead process with requests outstanding and fails over.
            os._exit(CRASH_EXIT_CODE)
        try:
            item = request_q.get(timeout=spec.heartbeat_interval_s)
        except queue_mod.Empty:
            response_q.put((WORKER_HEARTBEAT, spec.worker_id, served))
            continue
        if item is None:
            if spec.hang_on_shutdown:
                continue  # test hook: force shutdown() to escalate
            response_q.put((WORKER_DONE, spec.worker_id, engine.snapshot()))
            return
        if isinstance(item, tuple):
            _answer_control(response_q, spec.worker_id, engine, *item)
            continue
        items = [item]
        while len(items) < spec.max_batch:
            try:
                extra = request_q.get_nowait()
            except queue_mod.Empty:
                break
            if extra is None:
                # Defer shutdown until after this batch is served.
                request_q.put(None)
                break
            if isinstance(extra, tuple):
                _answer_control(response_q, spec.worker_id, engine, *extra)
                continue
            items.append(extra)
        t_cpu = time.process_time()
        t_wall = time.perf_counter()
        responses: list[OPFResponse] = []
        for d in items:
            try:
                req = OPFRequest.from_dict(d)
            except (KeyError, TypeError, ValueError) as exc:
                responses.append(
                    OPFResponse(
                        request_id=str(d.get("request_id", "?")),
                        status=STATUS_ERROR,
                        error=f"malformed request: {exc}",
                    )
                )
                continue
            rejection = engine.submit(req)
            if rejection is not None:
                responses.append(rejection)
        try:
            responses.extend(engine.run())
        except Exception as exc:  # noqa: BLE001 -- a worker must answer,
            # not die with requests in flight: convert whatever the solve
            # raised into error responses for everything still pending.
            responses.extend(
                OPFResponse(
                    request_id=d.get("request_id", "?"),
                    status=STATUS_ERROR,
                    error=f"worker {spec.worker_id} solve failed: {exc}",
                )
                for d in items
                if d.get("request_id") not in {r.request_id for r in responses}
            )
        served += len(responses)
        _post_batch(response_q, spec.worker_id, responses, t_cpu, t_wall)


class ProcessWorker:
    """Parent-side handle of one worker process.

    The parent enforces the worker's ``queue_size`` itself (via its
    outstanding-request ledger) because a ``multiprocessing.Queue`` has
    no useful cross-process depth bound; the child never rejects.
    """

    def __init__(self, spec: WorkerSpec, ctx, response_q):
        self.spec = spec
        self.worker_id = spec.worker_id
        self.request_q = ctx.Queue()
        self._shut_down = False
        self.process = ctx.Process(
            target=_worker_main,
            args=(spec, self.request_q, response_q),
            name=f"fleet-{spec.worker_id}",
            daemon=True,
        )
        self.process.start()

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def send(self, request: OPFRequest) -> None:
        self.request_q.put(request.to_dict())

    def adopt(self, requests: list[OPFRequest]) -> None:
        """Take over a dead worker's requests, in order."""
        for request in requests:
            self.send(request)

    def send_control(self, verb: str, arg) -> None:
        """Queue a control verb; the child answers with ``WORKER_STATE``."""
        self.request_q.put((verb, arg))

    def step(self) -> bool:
        """No-op: the child serves on its own."""
        return False

    def kill(self) -> None:
        """Chaos hook: SIGTERM the child now (no-op once it is dead)."""
        self.process.terminate()
        self.process.join(timeout=5.0)

    def shutdown(self, timeout_s: float = 5.0) -> None:
        """Sentinel + join; escalate to terminate if the child hangs.

        Idempotent: a second call is a no-op (the queue is already closed
        and the process reaped).
        """
        if self._shut_down:
            return
        self._shut_down = True
        if self.process.is_alive():
            try:
                self.request_q.put(None)
            except ValueError:  # queue already closed
                pass
            self.process.join(timeout=timeout_s)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=timeout_s)
        # Release the feeder thread's resources deterministically.
        self.request_q.close()
        self.request_q.join_thread()
