"""Bounded request queue and same-topology batch scheduler.

The queue applies *backpressure*: a submit against a full queue raises
:class:`QueueFullError` (the engine converts it into a ``rejected``
response) instead of growing without bound — under sustained overload the
caller learns immediately rather than watching latency diverge.

The scheduler drains the queue in FIFO order with a batch window: the
oldest waiting request fixes the topology key, and up to ``max_batch``
requests with the same key are pulled out of the queue (skipping, but not
reordering, requests on other topologies).  Same-key requests share a
plan's precomputed factorizations and are dispatched as one padded batch
through the batched projection kernels, so the window is what converts a
stream of single scenarios into the paper's batched-kernel shape.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.serve.requests import OPFRequest
from repro.utils.exceptions import ReproError


class QueueFullError(ReproError):
    """Raised on submit when the bounded request queue is at capacity.

    Carries machine-readable backpressure information so callers can back
    off intelligently instead of parsing the message:

    Attributes
    ----------
    queue_depth:
        Requests waiting at rejection time (== ``maxsize`` by definition).
    maxsize:
        The queue's capacity bound.
    retry_after_s:
        Suggested wait before retrying, derived from the engine's recent
        batch latency.  Never negative; 0.0 means "no estimate yet" (the
        engine has served no batch, so throughput is still unknown).
    """

    def __init__(self, queue_depth: int, maxsize: int, retry_after_s: float = 0.0):
        self.queue_depth = int(queue_depth)
        self.maxsize = int(maxsize)
        # Clamp: a stale or miscomputed hint must never tell callers to
        # retry "in the past" — zero (retry whenever) is the safe floor.
        self.retry_after_s = max(0.0, float(retry_after_s))
        super().__init__(
            f"request queue full ({self.queue_depth}/{self.maxsize} waiting); "
            f"retry in {self.retry_after_s:.3f}s"
        )


@dataclass
class BoundedRequestQueue:
    """FIFO queue with a hard capacity bound.

    ``retry_after_hint`` is the backoff suggestion attached to rejections;
    the engine keeps it fresh with an EWMA of recent batch latency.
    """

    maxsize: int = 256
    retry_after_hint: float = 0.0
    _items: deque = field(default_factory=deque, repr=False)

    def __post_init__(self) -> None:
        if self.maxsize < 1:
            raise ValueError("maxsize must be at least 1")

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.maxsize

    def submit(self, request: OPFRequest) -> None:
        """Enqueue or raise :class:`QueueFullError` (backpressure)."""
        if self.full:
            raise QueueFullError(
                queue_depth=len(self._items),
                maxsize=self.maxsize,
                retry_after_s=self.retry_after_hint,
            )
        self._items.append(request)

    def peek(self) -> OPFRequest | None:
        return self._items[0] if self._items else None

    def requeue_front(self, requests: list[OPFRequest]) -> None:
        """Put ``requests`` back at the head of the queue, preserving their
        relative order — used to restore an in-flight batch that was taken
        out but never served (a fleet worker crashing mid-dispatch).  The
        capacity bound is deliberately not enforced here: these requests
        were already admitted once and must not be dropped."""
        self._items.extendleft(reversed(requests))

    def drain_matching(self, topology_key: str, limit: int) -> list[OPFRequest]:
        """Remove and return up to ``limit`` requests with ``topology_key``,
        preserving the relative order of everything left behind."""
        taken: list[OPFRequest] = []
        kept: deque = deque()
        while self._items:
            req = self._items.popleft()
            if len(taken) < limit and req.topology_key() == topology_key:
                taken.append(req)
            else:
                kept.append(req)
        self._items = kept
        return taken


@dataclass
class BatchScheduler:
    """Groups queued requests into same-topology batches of bounded size."""

    queue: BoundedRequestQueue
    max_batch: int = 16

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")

    def next_batch(self) -> list[OPFRequest]:
        """The next dispatch group: oldest request's topology, up to
        ``max_batch`` members.  Empty list when the queue is empty."""
        head = self.queue.peek()
        if head is None:
            return []
        return self.queue.drain_matching(head.topology_key(), self.max_batch)
