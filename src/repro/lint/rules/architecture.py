"""R100 architecture-layering: the declared layer map, enforced.

The repo's packages form a strict layering (documented in
docs/ARCHITECTURE.md) that keeps the math plane refactorable without the
serving stack and vice versa:

======== ==========================================================
layer    packages
======== ==========================================================
app      ``cli``, ``__main__``, ``lint``, the ``repro`` root package
serving  ``serve``, ``fleet``
runtime  ``parallel``, ``gpu``, ``resilience``, ``methods``,
         ``multiperiod``, ``stochastic``
numerics ``core``, ``decomposition``, ``socp``, ``reference``, ``io``
model    ``network``, ``formulation``, ``feeders``
found.   ``utils``, ``telemetry``, ``backend``, ``qp``
======== ==========================================================

Three checks, all over the whole-program import graph:

* a module may import only packages in its own layer or below — a
  ``core`` module importing ``serve`` (or anything importing ``cli``)
  is the classic layering escape this rule exists for;
* ``repro.telemetry`` enters the lower layers (foundation→runtime) only
  through the declared adapter seams — the solver-loop tracer hooks and
  the ``PhaseTimer`` adapter — so the math plane stays measurable
  without being wired to the measurement plane module by module;
* module-level import cycles over eager imports are forbidden (lazy
  function-body imports are the sanctioned decoupling seams and are
  exempt from the cycle check, but still count for layering; a package
  ``__init__`` importing its own submodules is the re-export idiom and
  likewise excluded from the cycle check only).
"""

from __future__ import annotations

from repro.lint.rules import ProjectRule, register

#: The declared layer map, lowest first.  A module may import packages
#: whose layer index is <= its own.
LAYERS: tuple[tuple[str, frozenset[str]], ...] = (
    ("foundation", frozenset({"utils", "telemetry", "backend", "qp"})),
    ("model", frozenset({"network", "formulation", "feeders"})),
    ("numerics", frozenset({"core", "decomposition", "socp", "reference", "io"})),
    (
        "runtime",
        frozenset(
            {"parallel", "gpu", "resilience", "methods", "multiperiod", "stochastic"}
        ),
    ),
    ("serving", frozenset({"serve", "fleet"})),
    ("app", frozenset({"cli", "__main__", "lint", ""})),
)

#: Modules in the foundation→runtime layers allowed to import
#: ``repro.telemetry`` directly: the solver-loop tracer entry points and
#: the ``PhaseTimer`` metrics adapter.  Everything else down there must
#: take a tracer/registry as an argument instead.
TELEMETRY_SEAMS: frozenset[str] = frozenset(
    {
        "utils/timing.py",
        "core/loop.py",
        "parallel/runner.py",
        "resilience/faults.py",
    }
)

_LAYER_INDEX: dict[str, int] = {
    pkg: i for i, (_, pkgs) in enumerate(LAYERS) for pkg in pkgs
}
_LAYER_NAME: dict[str, str] = {
    pkg: name for name, pkgs in LAYERS for pkg in pkgs
}
#: Index of the highest layer whose telemetry imports are seam-gated.
_TELEMETRY_GATED_BELOW = next(
    i for i, (name, _) in enumerate(LAYERS) if name == "serving"
)


@register
class ArchitectureLayering(ProjectRule):
    id = "R100"
    name = "architecture-layering"
    severity = "error"
    rationale = (
        "the declared layer map (docs/ARCHITECTURE.md) keeps the math "
        "plane importable without the serving stack: lower layers must "
        "not import higher ones, telemetry enters the lower layers only "
        "through the adapter seams, and eager import cycles are forbidden"
    )
    scope = ()

    def check_project(self, graph):
        line_of: dict[tuple[str, str], tuple[str, int]] = {}
        for src, dst, line, _lazy in graph.import_edges():
            key = (src, dst)
            if key not in line_of:
                line_of[key] = (graph.by_module[src].rel, line)

        for mod in graph.modules:
            src_pkg = mod.package
            if src_pkg not in _LAYER_INDEX:
                yield (
                    mod.rel,
                    1,
                    0,
                    f"package {src_pkg!r} is not in the declared layer map — "
                    "add it to repro.lint.rules.architecture.LAYERS (and "
                    "docs/ARCHITECTURE.md) deliberately",
                )
                continue
            src_idx = _LAYER_INDEX[src_pkg]
            for edge in mod.imports:
                for dst in graph.resolve_target(edge):
                    if dst not in graph.by_module:
                        continue
                    dst_pkg = graph.by_module[dst].package
                    if dst_pkg == src_pkg or dst_pkg not in _LAYER_INDEX:
                        continue
                    dst_idx = _LAYER_INDEX[dst_pkg]
                    if dst_idx > src_idx:
                        yield (
                            mod.rel,
                            edge.line,
                            0,
                            f"layering escape: {_LAYER_NAME[src_pkg]}-layer "
                            f"module imports {dst} "
                            f"({_LAYER_NAME[dst_pkg]} layer) — invert the "
                            "dependency or move the shared piece down",
                        )
                    if (
                        dst_pkg == "telemetry"
                        and src_idx < _TELEMETRY_GATED_BELOW
                        and src_pkg != "telemetry"
                        and mod.rel not in TELEMETRY_SEAMS
                    ):
                        yield (
                            mod.rel,
                            edge.line,
                            0,
                            "telemetry imported outside the adapter seams — "
                            "take a Tracer/MetricsRegistry as an argument, "
                            "or add this module to TELEMETRY_SEAMS "
                            "deliberately",
                        )

        for cycle in graph.import_cycles():
            first = cycle[0]
            rel = graph.by_module[first].rel
            yield (
                rel,
                1,
                0,
                "eager import cycle: " + " -> ".join(cycle + [first]) + " — "
                "break it with a lazy (function-body) import at the "
                "sanctioned seam or by moving the shared piece down",
            )
