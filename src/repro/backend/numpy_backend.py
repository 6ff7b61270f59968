"""NumPy backends: ``numpy64`` (default, bit-identical to the historical
implementation) and ``numpy32`` (fp32 compute, fp64 accumulation, with the
automatic fp64-refinement fallback enabled)."""

from __future__ import annotations

import numpy as np

from repro.backend.base import Backend
from repro.backend.policy import FP64, MIXED, PrecisionPolicy


class NumpyBackend(Backend):
    """Host-memory execution through the plain NumPy namespace."""

    device = False

    def __init__(self, policy: PrecisionPolicy, name: str | None = None):
        super().__init__(policy)
        self.name = name or (
            "numpy64" if self.compute_dtype == np.float64 else "numpy32"
        )

    @property
    def xp(self):
        return np

    @staticmethod
    def is_available() -> bool:
        return True


def make_numpy64() -> NumpyBackend:
    return NumpyBackend(FP64, name="numpy64")


def make_numpy32() -> NumpyBackend:
    return NumpyBackend(MIXED, name="numpy32")
