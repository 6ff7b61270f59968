"""R004 telemetry-hygiene: spans close, metric names stay queryable.

Two failure modes this rule gates:

* A ``tracer.span(...)`` opened without a ``with`` block leaks on any
  exception path: the span never records, the per-thread parent stack
  desynchronizes, and every later span in that thread reports the wrong
  parent.  The context-manager form is the only spelling that is correct
  under exceptions.
* Metric names are the query surface of every dashboard and trace
  summary.  The registry's convention is lowercase dotted paths,
  ``<namespace>.<quantity>[_<unit>]`` (``serve.latency_s``,
  ``rank.failover``), with the namespaces of the registered metrics in
  :mod:`repro.telemetry.names` — a typo'd ``Serve.Latency`` or an
  unregistered namespace silently forks the metric space.

Only *literal* names are checked; dynamically built names (the
``PhaseTimer`` prefix f-strings) are skipped.
"""

from __future__ import annotations

import ast
import re

from repro.lint.rules import Rule, register
from repro.telemetry.names import METRIC_NAMES

#: Registered metric namespaces: the first dotted segment of every
#: registered metric name.
NAMESPACES = frozenset(name.split(".", 1)[0] for name in METRIC_NAMES)

#: Metric names: lowercase snake segments, at least one dot.
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")
#: Span names: lowercase dotted snake (single-segment allowed).
SPAN_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")

_METRIC_METHODS = frozenset({"counter", "gauge", "histogram"})


def _literal_first_arg(node: ast.Call) -> str | None:
    if node.args and isinstance(node.args[0], ast.Constant):
        if isinstance(node.args[0].value, str):
            return node.args[0].value
    return None


@register
class TelemetryHygiene(Rule):
    id = "R004"
    name = "telemetry-hygiene"
    severity = "error"
    rationale = (
        "spans must be context-managed so they close on every exception "
        "path, and literal metric names must match the registered "
        "lowercase-dotted namespace so the metric space stays queryable"
    )
    scope = ()  # everywhere

    def check(self, tree, lines, relpath):
        # First pass: span calls that appear directly as a `with` item.
        with_spans: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    # A span behind a conditional expression
                    # (`span(...) if tracing else nullcontext()`) is
                    # still directly context-managed.
                    candidates = [item.context_expr]
                    while candidates:
                        ce = candidates.pop()
                        if isinstance(ce, ast.IfExp):
                            candidates.extend((ce.body, ce.orelse))
                        elif (
                            isinstance(ce, ast.Call)
                            and isinstance(ce.func, ast.Attribute)
                            and ce.func.attr == "span"
                        ):
                            with_spans.add(id(ce))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Attribute
            ):
                continue
            attr = node.func.attr
            if attr == "span":
                if id(node) not in with_spans:
                    yield (
                        node.lineno,
                        node.col_offset,
                        "tracer span opened outside a `with` block — use "
                        "`with tracer.span(...)` so the span closes on every "
                        "exception path",
                    )
                name = _literal_first_arg(node)
                if name is not None and not SPAN_NAME_RE.match(name):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"span name {name!r} is not lowercase dotted snake "
                        "(e.g. `admm.solve`)",
                    )
            elif attr in _METRIC_METHODS:
                name = _literal_first_arg(node)
                if name is None:
                    continue
                if not METRIC_NAME_RE.match(name):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"metric name {name!r} does not match the "
                        "`namespace.quantity[_unit]` convention "
                        "(lowercase dotted snake)",
                    )
                elif name.split(".", 1)[0] not in NAMESPACES:
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"metric namespace {name.split('.', 1)[0]!r} is not "
                        "registered (known: "
                        f"{', '.join(sorted(NAMESPACES))}) — register a "
                        "metric under it in repro/telemetry/names.py "
                        "deliberately if it is new",
                    )
