"""A deterministic simulated MPI communicator.

The paper's implementation exchanges iterates over MPI (Section IV-E); on
this single-core machine we reproduce the *semantics* exactly — real data
moves between rank-local buffers — while wall time is tracked by per-rank
virtual clocks advanced with the alpha-beta model of
:mod:`repro.parallel.comm` (including the GPU device-host staging penalty
when ranks are GPUs).

The API mirrors the mpi4py verbs the algorithm needs:

* :meth:`SimComm.scatterv` — root sends each rank its slice (root endpoint
  serializes its messages, which is what makes aggregator communication
  grow with rank count, Fig. 1c);
* :meth:`SimComm.gatherv` — the reverse;
* :meth:`SimComm.bcast` — root to all, serialized at the root;
* :meth:`SimComm.barrier` — clock synchronization to the slowest rank.

Clocks only ever move forward; the communicator never reorders data, so a
program driven by :class:`SimComm` is bit-deterministic.

Fault injection (``repro.resilience``): an optional :attr:`SimComm.injector`
with a ``message_fault(src, dst) -> (dropped, delay_s)`` hook is consulted
on every point-to-point message.  A *delayed* message charges extra wire
time to both endpoints; a *dropped* message still occupies the sender's
endpoint (the bytes leave, the network loses them) but the data is never
delivered — the receiving slot of the collective comes back ``None``.
Callers that never set an injector observe the historical behavior exactly.
Collectives additionally support skipped ranks: a ``None`` part in
``scatterv`` sends nothing to that rank, and ``gatherv(..., partial=True)``
accepts contributions from a subset of ranks — both are what the
distributed runner uses to route around crashed or stale ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.parallel.comm import BYTES_PER_VALUE, CommModel


@dataclass
class SimComm:
    """A simulated communicator over ``size`` ranks.

    Parameters
    ----------
    size:
        Number of ranks (>= 1).
    comm_model:
        Link model applied to every point-to-point message.
    injector:
        Optional message-fault hook (see
        :class:`repro.resilience.FaultInjector`); ``None`` disables fault
        injection entirely.
    """

    size: int
    comm_model: CommModel
    injector: object | None = None
    clocks: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("need at least one rank")
        self.clocks = np.zeros(self.size)

    # ------------------------------------------------------------------
    # Clock bookkeeping
    # ------------------------------------------------------------------
    def advance(self, rank: int, seconds: float) -> None:
        """Charge ``seconds`` of local compute to ``rank``."""
        if seconds < 0:
            raise ValueError("cannot advance a clock backwards")
        self.clocks[rank] += seconds

    def elapsed(self) -> float:
        """Simulated wall time so far (slowest rank)."""
        return float(self.clocks.max())

    def barrier(self, ranks: list[int] | None = None) -> None:
        """Synchronize clocks to the slowest participant.

        With ``ranks`` given, only those ranks synchronize (the
        distributed runner barriers the survivors, never a dead rank).
        """
        if ranks is None:
            self.clocks[:] = self.clocks.max()
        elif ranks:
            idx = np.asarray(ranks, dtype=np.int64)
            self.clocks[idx] = self.clocks[idx].max()

    def _p2p(self, src: int, dst: int, n_values: int) -> bool:
        """One message src -> dst; the sender's endpoint is busy for the
        message duration, the receiver finishes no earlier.  Returns
        whether the payload was delivered (False only under an injected
        message drop)."""
        t = self.comm_model.message_time(n_values * BYTES_PER_VALUE)
        dropped = False
        if self.injector is not None:
            dropped, delay_s = self.injector.message_fault(src, dst)
            t += delay_s
        start = max(self.clocks[src], self.clocks[dst])
        self.clocks[src] = start + t
        self.clocks[dst] = start + t
        return not dropped

    # ------------------------------------------------------------------
    # Collectives (data + time)
    # ------------------------------------------------------------------
    def scatterv(self, root: int, parts: list[np.ndarray | None]) -> list:
        """Root sends ``parts[r]`` to each rank r; returns received buffers.

        Root's endpoint serializes the sends (flat tree), so the root-side
        cost is ``sum_r (alpha + bytes_r / beta)``.  A ``None`` part skips
        that rank entirely (no message, no time); a dropped message yields
        ``None`` in the corresponding output slot.
        """
        if len(parts) != self.size:
            raise ValueError("scatterv needs one part per rank")
        out: list[np.ndarray | None] = [None] * self.size
        for r in range(self.size):
            if parts[r] is None:
                continue
            if r == root:
                out[r] = parts[r]
                continue
            if self._p2p(root, r, parts[r].size):
                out[r] = parts[r].copy()
        return out

    def gatherv(
        self, root: int, part: dict[int, np.ndarray], partial: bool = False
    ) -> list:
        """Each rank contributes ``part[r]``; root receives them serially.

        ``partial=True`` allows a subset of ranks to contribute (crashed or
        skipped ranks simply have no entry); missing or dropped
        contributions come back as ``None``.
        """
        if not partial and set(part) != set(range(self.size)):
            raise ValueError("gatherv needs one part per rank")
        if partial and not set(part) <= set(range(self.size)):
            raise ValueError("gatherv got contributions from unknown ranks")
        out: list[np.ndarray | None] = [None] * self.size
        for r in range(self.size):
            if r not in part:
                continue
            if r == root:
                out[r] = part[r]
                continue
            if self._p2p(r, root, part[r].size):
                out[r] = part[r].copy()
        return out

    def bcast(self, root: int, value: np.ndarray) -> list:
        """Root sends the same buffer to every rank (flat tree)."""
        out: list[np.ndarray | None] = [None] * self.size
        for r in range(self.size):
            if r == root:
                out[r] = value
            elif self._p2p(root, r, value.size):
                out[r] = value.copy()
        return out
