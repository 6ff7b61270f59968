"""R001 backend-discipline: no raw NumPy compute in backend-routed modules.

PR 4 made every hot-path array operation flow through the
:class:`repro.backend.Backend` protocol — allocation under an explicit
precision policy, the batched projection matmul, the consensus
scatter-add, the bound clip, and fp64-accumulated reductions.  A stray
``np.linalg.norm`` or ``np.bincount`` in those modules silently re-pins
the operation to host fp64 NumPy: the fp32/CuPy paths stop being
exercised, reductions lose their fp64 accumulation contract, and the GPU
cost model's itemsize-based traffic estimates drift from reality.

The rule flags *compute* calls (reductions, kernels, elementwise math,
anything under ``numpy.linalg``/``numpy.fft``) resolved through any
import alias of ``numpy``.  Shape/indexing/structural helpers
(``asarray``, ``arange``, ``concatenate``, ``flatnonzero``, ...) and
plain allocation stay allowed: they carry no accumulation or kernel
semantics, and setup-time allocation is rounded once at the backend
boundary anyway.
"""

from __future__ import annotations

import ast

from repro.lint.rules import Rule, register
from repro.lint.rules.common import call_name, import_aliases

#: NumPy callables that perform array compute and therefore must route
#: through the Backend protocol inside scoped modules.
COMPUTE_CALLS = frozenset(
    {
        # kernels / contractions
        "matmul", "dot", "vdot", "inner", "outer", "einsum", "tensordot",
        "bincount", "clip", "convolve", "cross",
        # reductions
        "sum", "prod", "mean", "std", "var", "median", "average",
        "percentile", "quantile", "min", "max", "amin", "amax",
        "nansum", "nanmean", "nanmin", "nanmax", "ptp", "trace", "norm",
        # elementwise math (dtype-sensitive)
        "abs", "absolute", "sqrt", "exp", "expm1", "log", "log1p", "log2",
        "log10", "power", "maximum", "minimum", "sign", "round", "around",
        "add", "subtract", "multiply", "divide", "true_divide",
        "floor_divide", "reciprocal", "hypot",
        # fitting / interpolation
        "polyfit", "polyval", "interp",
    }
)

#: Compliant spelling hints for the most common offenders.
_HINTS = {
    "linalg.norm": "Backend.norm (fp64-accumulated)",
    "norm": "Backend.norm (fp64-accumulated)",
    "dot": "Backend.dot (fp64-accumulated)",
    "vdot": "Backend.dot (fp64-accumulated)",
    "bincount": "Backend.scatter_add",
    "clip": "Backend.clip",
    "matmul": "Backend.matmul_batched",
    "einsum": "Backend.matmul_batched",
}


@register
class BackendDiscipline(Rule):
    id = "R001"
    name = "backend-discipline"
    severity = "error"
    rationale = (
        "hot-path array compute must route through the Backend protocol so "
        "fp32/CuPy execution, fp64-accumulated reductions and the GPU cost "
        "model stay honest"
    )
    scope = ("core/", "serve/", "parallel/runner.py")

    def check(self, tree, lines, relpath):
        aliases = import_aliases(tree)
        if "numpy" not in aliases.values() and not any(
            v.startswith("numpy.") for v in aliases.values()
        ):
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node, aliases)
            if not name or not name.startswith("numpy."):
                continue
            tail = name[len("numpy."):]
            if not (tail.startswith(("linalg.", "fft.")) or tail in COMPUTE_CALLS):
                continue
            hint = _HINTS.get(tail) or _HINTS.get(tail.rsplit(".", 1)[-1])
            suffix = f" — use {hint}" if hint else " — use the strategy's backend"
            yield (
                node.lineno,
                node.col_offset,
                f"raw NumPy compute call `np.{tail}` in a backend-routed "
                f"module bypasses the Backend protocol{suffix}",
            )
