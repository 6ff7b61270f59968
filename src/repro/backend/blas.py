"""One BLAS thread around small dense factorizations.

NumPy and SciPy each load an OpenBLAS that runs large products on a pool
of threads, one per CPU.  On the systems of a few tens of rows that a
component's projection, its row reduction and the active-set polish
factorize, waking that pool costs far more than the arithmetic: on a
2-vCPU host an ieee13 scenario build took 24 ms by default against 5 ms
under ``OPENBLAS_NUM_THREADS=1``.  That variable would pin every product
of the process, so :func:`single_blas_thread` instead drops each loaded
OpenBLAS to one thread for the duration of a call and then restores the
count it found.

The libraries are looked up once, among the shared objects the process
has loaded when first needed (``/proc/self/maps``, so on Linux); where no
OpenBLAS is found the context does nothing.  The thread count is state of
the whole process, so Python threads that enter the context concurrently
may restore each other's count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

#: (getter, setter) symbol pairs per OpenBLAS build: NumPy's 64-bit-integer
#: scipy-openblas, SciPy's scipy-openblas, then plain builds.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _loaded_openblas() -> list[str]:
    """Paths of the loaded shared objects whose name mentions OpenBLAS."""
    try:
        with open("/proc/self/maps") as maps:
            lines = maps.read().splitlines()
    except OSError:
        return []
    paths: list[str] = []
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) < 6:
            continue
        path = fields[5]
        if "openblas" in path.rsplit("/", 1)[-1].lower() and path not in paths:
            paths.append(path)
    return paths


@functools.cache
def _openblas_controls() -> tuple:
    """``(get_num_threads, set_num_threads)`` of every loaded OpenBLAS,
    looked up on the first call."""
    controls = []
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


@contextlib.contextmanager
def single_blas_thread():
    """Run the body (or, as a decorator, each call) with every loaded
    OpenBLAS on one thread, restoring each library's count on exit."""
    restore = []
    for get, set_ in _openblas_controls():
        threads = get()
        if threads != 1:
            set_(1)
            restore.append((set_, threads))
    try:
        yield
    finally:
        for set_, threads in restore:
            set_(threads)
