"""CuPy backend: the NumPy code path re-run on a CUDA device.

Because every hot-loop primitive is expressed through the ``xp``
namespace of :class:`~repro.backend.base.Backend`, the CuPy backend is
mostly a namespace swap; only the host/device boundary (result
extraction, warm-start payloads) needs explicit transfers.  The backend
is auto-detected: it registers only when ``import cupy`` succeeds *and* a
device is actually reachable, so CPU-only environments (including CI)
skip it cleanly instead of failing at import time.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import Backend
from repro.backend.policy import FP64, PrecisionPolicy

try:  # pragma: no cover - exercised only on CUDA machines
    import cupy as _cupy
except Exception:  # ImportError, or a broken CUDA installation
    _cupy = None


def _device_reachable() -> bool:  # pragma: no cover - needs real hardware
    if _cupy is None:
        return False
    try:
        _cupy.cuda.runtime.getDeviceCount()
        return _cupy.cuda.runtime.getDeviceCount() > 0
    except Exception:
        return False


class CupyBackend(Backend):
    """Device-memory execution through the CuPy namespace."""

    name = "cupy"
    device = True

    def __init__(self, policy: PrecisionPolicy = FP64):
        if not self.is_available():  # pragma: no cover - CPU-only envs
            raise RuntimeError(
                "cupy backend requested but cupy (or a CUDA device) is unavailable"
            )
        super().__init__(policy)

    @property
    def xp(self):  # pragma: no cover - needs real hardware
        return _cupy

    @staticmethod
    def is_available() -> bool:
        return _device_reachable()

    # -- host/device boundary ------------------------------------------
    def to_numpy(self, a) -> np.ndarray:  # pragma: no cover - hardware
        return np.asarray(_cupy.asnumpy(a), dtype=np.float64)

    def take(self, a, idx, out=None):  # pragma: no cover - hardware
        # CuPy's take has no ``mode`` argument.
        return a.take(idx, out=out)

    def norm(self, v) -> float:  # pragma: no cover - hardware
        v = _cupy.asarray(v, dtype=self.accumulate_dtype)
        return float(_cupy.linalg.norm(v))


def make_cupy() -> CupyBackend:  # pragma: no cover - hardware
    return CupyBackend(FP64)
