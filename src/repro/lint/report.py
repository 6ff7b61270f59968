"""Output formats for lint results.

``text`` is for humans at a terminal, ``json`` is the stable
machine-readable schema (version-stamped; consumed by tests and any
tooling that wants to diff runs), ``github`` emits workflow annotation
commands so findings land inline on the PR diff, and ``stats`` is the
``--stats`` aggregate view (per rule and per package).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict

from repro.lint.engine import Finding, LintResult

JSON_SCHEMA_VERSION = 2


def format_text(result: LintResult) -> str:
    """Human-readable report: one line per finding plus a summary."""
    out = []
    for f in result.findings:
        out.append(f"{f.path}:{f.line}:{f.col + 1}: {f.rule} [{f.severity}] {f.message}")
    out.append("")
    out.append(summary_line(result))
    return "\n".join(out)


def summary_line(result: LintResult) -> str:
    parts = [
        f"{result.files} files",
        f"{len(result.findings)} findings",
        f"{result.suppressed} suppressed",
    ]
    status = "clean" if result.clean else "FAIL"
    return f"lint: {', '.join(parts)} — {status}"


def format_json(result: LintResult) -> str:
    """Stable machine-readable document (schema_version-stamped)."""
    doc = {
        "schema_version": JSON_SCHEMA_VERSION,
        "summary": {
            "files": result.files,
            "findings": len(result.findings),
            "suppressed": result.suppressed,
            "clean": result.clean,
            "by_rule": result.by_rule(),
        },
        "findings": [asdict(f) for f in result.findings],
        "rules": [r.describe() for r in result.rules],
    }
    return json.dumps(doc, indent=2)


def format_github(result: LintResult) -> str:
    """GitHub Actions workflow annotations (``::error file=...``)."""
    out = []
    for f in result.findings:
        level = "error" if f.severity == "error" else "warning"
        # Annotation messages must keep to one line.
        message = f"{f.rule}: {f.message}".replace("\n", " ")
        out.append(
            f"::{level} file={f.path},line={f.line},col={f.col + 1}::{message}"
        )
    out.append(summary_line(result))
    return "\n".join(out)


def _package(f: Finding) -> str:
    """Top-level package of a finding, for the stats breakdown."""
    posix = f.path
    idx = posix.rfind("repro/")
    rel = posix[idx + len("repro/"):] if idx >= 0 else posix
    return rel.split("/", 1)[0] if "/" in rel else "(root)"


def format_stats(result: LintResult) -> str:
    """Aggregate view: counts per rule and per package, graph shape and
    phase timings."""
    rule_meta = {r.id: r for r in result.rules}
    by_rule = Counter(f.rule for f in result.findings)
    out = ["per rule:"]
    for rid in sorted(set(by_rule) | set(rule_meta)):
        meta = rule_meta.get(rid)
        label = f"{rid} {meta.name}" if meta else rid
        out.append(f"  {label:32s} {by_rule.get(rid, 0):4d}")
    by_pkg = Counter(_package(f) for f in result.findings)
    out.append("per package:")
    for pkg, count in sorted(by_pkg.items(), key=lambda kv: (-kv[1], kv[0])):
        out.append(f"  {pkg:32s} {count:4d}")
    if result.graph_modules:
        out.append("project graph:")
        out.append(
            f"  {result.graph_modules} modules, "
            f"{result.graph_edges} internal import edges"
        )
    if result.timings:
        out.append("timings:")
        for key in ("file_pass", "graph_build", "graph_rules", "total"):
            if key in result.timings:
                out.append(f"  {key:12s} {result.timings[key] * 1000:8.1f} ms")
    out.append("")
    out.append(summary_line(result))
    return "\n".join(out)
