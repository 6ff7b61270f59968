"""Topology-affinity routing: a consistent-hash ring over worker ids.

The fleet's whole performance story rests on *cache affinity*: a
:class:`~repro.serve.engine.TopologyPlan` (partition, row reduction,
base projections) and the warm-start cache are per-worker state,
so every request for a given topology should land on the same worker.  A
plain ``hash(key) % n_workers`` would do that — until a worker dies and
every topology's assignment shuffles at once, cold-starting every cache
in the fleet.  Consistent hashing bounds the blast radius: each worker
owns many pseudo-random points on a ring, a key routes to the first point
clockwise of its own hash, and removing a worker moves *only the dead
worker's keys* (to their next-preferred survivors) while every other
assignment stays put.

Hashes are sha256-based (:func:`stable_hash`), never Python's builtin
``hash``: string hashing is salted per process (``PYTHONHASHSEED``), and
routing must be identical across runs, platforms and the frontend/worker
process boundary — the determinism contract the routing tests pin down.
"""

from __future__ import annotations

import bisect
import hashlib

#: Default virtual-node count per worker.  More replicas smooth the ring
#: (per-worker key share concentrates around 1/n) at the cost of a larger
#: sorted point list; 64 keeps the imbalance low for single-digit fleets.
DEFAULT_REPLICAS = 64


def stable_hash(key: str) -> int:
    """Process- and platform-independent 64-bit hash of ``key``.

    The first 8 bytes of sha256, big-endian — deliberately *not* Python's
    ``hash()``, which is salted per process for strings.
    """
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


class HashRing:
    """Consistent-hash ring mapping string keys to worker ids.

    Parameters
    ----------
    worker_ids:
        Initial members.  Order does not matter: the ring is a pure
        function of the *set* of ids (and ``replicas``).
    replicas:
        Virtual nodes per worker.

    Examples
    --------
    >>> ring = HashRing(["w0", "w1", "w2"])
    >>> owner = ring.route("feeder:ieee13")
    >>> ring.remove(owner)
    >>> ring.route("feeder:ieee13") in ring.workers()
    True
    """

    def __init__(self, worker_ids, replicas: int = DEFAULT_REPLICAS):
        if replicas < 1:
            raise ValueError("replicas must be at least 1")
        self.replicas = int(replicas)
        self._workers: set[str] = set()
        self._points: list[tuple[int, str]] = []
        for wid in worker_ids:
            self.add(wid)
        if not self._workers:
            raise ValueError("ring needs at least one worker")

    def __len__(self) -> int:
        return len(self._workers)

    def __contains__(self, worker_id: str) -> bool:
        return worker_id in self._workers

    def workers(self) -> list[str]:
        """Current members, sorted (deterministic iteration order)."""
        return sorted(self._workers)

    def add(self, worker_id: str) -> None:
        if worker_id in self._workers:
            return
        self._workers.add(worker_id)
        for r in range(self.replicas):
            point = stable_hash(f"{worker_id}#{r}")
            bisect.insort(self._points, (point, worker_id))

    def remove(self, worker_id: str) -> None:
        """Drop a worker (its keys reroute to their next preference)."""
        if worker_id not in self._workers:
            raise KeyError(worker_id)
        if len(self._workers) == 1:
            raise ValueError("cannot remove the last worker from the ring")
        self._workers.discard(worker_id)
        self._points = [p for p in self._points if p[1] != worker_id]

    def route(self, key: str) -> str:
        """The worker owning ``key``: first ring point clockwise of
        ``stable_hash(key)`` (wrapping)."""
        h = stable_hash(key)
        # "￿" sorts after any sane worker id, so bisect lands strictly
        # past every point with hash == h: the owner is the first point
        # with hash > h (wrapping), a fixed convention either side of a
        # (vanishingly unlikely) 64-bit collision.
        i = bisect.bisect_right(self._points, (h, "￿"))
        if i == len(self._points):
            i = 0
        return self._points[i][1]

    def preference(self, key: str) -> list[str]:
        """All workers in failover order for ``key``: walk the ring
        clockwise from the key's hash, keeping the first occurrence of
        each worker.  ``preference(k)[0] == route(k)``; the tail is the
        spill/failover order when earlier choices are full or dead."""
        h = stable_hash(key)
        start = bisect.bisect_right(self._points, (h, "￿")) % len(self._points)
        order: list[str] = []
        seen: set[str] = set()
        n = len(self._points)
        for step in range(n):
            wid = self._points[(start + step) % n][1]
            if wid not in seen:
                seen.add(wid)
                order.append(wid)
                if len(order) == len(self._workers):
                    break
        return order

    def assignment(self, keys) -> dict[str, str]:
        """Route many keys at once: ``{key: worker_id}``."""
        return {key: self.route(key) for key in keys}
