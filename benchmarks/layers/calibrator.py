"""Calibration sidecar: samples the CPU's speed while a benchmark run works.

The run starts this script pinned to the CPU it runs on itself.  Every
``PERIOD_S`` seconds the sidecar times a fixed NumPy loop in thread CPU
time, which a process sharing the physical core slows down but time
slicing does not, and records ``(wall start, wall end, cpu seconds)``.
It prints ``ready`` once set up; when its stdin closes it prints the
samples as one JSON list and exits.
"""

from __future__ import annotations

import json
import select
import sys
import time

import numpy as np

PERIOD_S = 0.1
LOOP_ITERATIONS = 1000


def sample(a: np.ndarray, v: np.ndarray) -> tuple[float, float, float]:
    wall = time.perf_counter()
    cpu = time.thread_time()
    for _ in range(LOOP_ITERATIONS):
        v = np.tanh(a @ v)
    return wall, time.perf_counter(), time.thread_time() - cpu


def main() -> None:
    a = np.random.default_rng(0).standard_normal((64, 64)) / 8.0
    v = np.ones(64)
    sample(a, v)  # first touch: page faults and caches, not the CPU's speed
    print("ready", flush=True)
    samples = [sample(a, v)]
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        samples.append(sample(a, v))
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    main()
