"""Machine-speed correction of wall-clock timings.

On a shared machine the CPU a run gets slows down by up to 2x for tens of
seconds at a time, whenever another tenant loads the same physical core.
A run therefore pins itself and the calibration sidecar
(``calibrator.py``) to one CPU.  The sidecar samples that CPU's speed ten
times a second, and :class:`SpeedMap` converts raw
``perf_counter`` timestamps into *reference seconds*: wall time multiplied
by ``REFERENCE_CPU_S / sample`` around it, with the sidecar's own bursts
taken out.  A reference second is a second at the speed at which the
sidecar loop takes ``REFERENCE_CPU_S``, which is this CPU model unloaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

#: The sidecar loop's median CPU seconds on an unloaded 2.1 GHz Intel Xeon
#: KVM vCPU (NumPy 2.4, Python 3.11): the speed of a reference second.
REFERENCE_CPU_S = 1.85e-3
#: Samples in the running median that smooths single-sample jitter.
SMOOTHING = 5
SIDECAR = Path(__file__).resolve().parent / "calibrator.py"


class Calibrator:
    """Runs the sidecar for the duration of a ``with`` block.

    Entering waits until the sidecar has imported NumPy, so its start-up
    does not share the CPU with the first timed work.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._proc = None

    def __enter__(self) -> "Calibrator":
        self._proc = subprocess.Popen(
            [sys.executable, str(SIDECAR)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self._proc.stdout.readline().strip() != "ready":
            self._proc.kill()
            self._proc.wait()
            raise RuntimeError("the calibration sidecar failed to start")
        return self

    def __exit__(self, *exc) -> None:
        out, _ = self._proc.communicate("", timeout=60)
        self.samples = [tuple(s) for s in json.loads(out)] if out.strip() else []


def pin_to_one_cpu() -> set[int] | None:
    """Pin this process (and what it starts later) to its lowest allowed
    CPU; returns the previous affinity, or ``None`` where unsupported."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    previous = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {min(previous)})
    except OSError:  # a sandbox may forbid it; the sidecar still samples
        return None
    return previous


def restore_affinity(previous: set[int] | None) -> None:
    if previous is not None:
        os.sched_setaffinity(0, previous)


class SpeedMap:
    """Raw ``perf_counter`` time to reference seconds, piecewise linear."""

    def __init__(self, samples: list[tuple[float, float, float]]):
        if not samples:
            raise ValueError("the calibration sidecar returned no samples")
        samples = sorted(samples)
        cpu = np.array([s[2] for s in samples])
        half = SMOOTHING // 2
        smooth = np.array([np.median(cpu[max(0, i - half): i + half + 1])
                           for i in range(len(cpu))])
        factor = REFERENCE_CPU_S / smooth
        # Edges alternate burst start / burst end; the workload stands
        # still during a burst and runs at the neighbouring speed between.
        edges = np.array([t for s in samples for t in s[:2]])
        rates = np.zeros(len(edges) - 1)
        rates[1::2] = (factor[:-1] + factor[1:]) / 2
        self.edges = edges
        self.rates = rates
        self.cum = np.concatenate([[0.0], np.cumsum(rates * np.diff(edges))])
        self.first = factor[0]
        self.last = factor[-1]
        self.calib_s = float(np.median(cpu))

    def __call__(self, t: float) -> float:
        edges = self.edges
        if t <= edges[0]:
            return (t - edges[0]) * self.first
        if t >= edges[-1]:
            return self.cum[-1] + (t - edges[-1]) * self.last
        k = int(np.searchsorted(edges, t, side="right")) - 1
        return self.cum[k] + (t - edges[k]) * self.rates[k]

    def duration(self, start: float, end: float) -> float:
        return self(end) - self(start)
