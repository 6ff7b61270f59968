"""The lint engine: discovery, two-phase analysis, pragmas.

Every run is cold and has two phases.  **Phase one** walks ``.py``
files, parses each once with :mod:`ast`, runs every in-scope *per-file*
rule over the tree, and extracts the file's :class:`~repro.lint.graph.
ModuleInfo` summary.  **Phase two** assembles the summaries into a
:class:`~repro.lint.graph.ProjectGraph` and runs the *whole-program*
rules (R100+) against it, attributing each finding back to a file so
the downstream machinery is shared.

Two layers filter the raw rule output before anything reaches the
report:

* **Suppressions** — ``# repro-lint: disable=R001`` on the offending
  line, or ``# repro-lint: disable-file=R001,R003`` anywhere in the
  file.  Suppressed findings vanish; a suppression that never fires is
  itself reported (rule ``R000``), so stale pragmas can't accumulate.
  Project-rule findings honour the same pragmas.
* **Scope** — each rule's path prefixes, matched against the module's
  path *relative to the* ``repro`` *package* (``core/residuals.py``),
  so the same rules work on fixture trees in tests.
"""

from __future__ import annotations

import ast
import io
import re
import time
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.graph import ModuleInfo, ProjectGraph, extract_module
from repro.lint.rules import ProjectRule, Rule, all_rules

# Suppression pragma syntax; matched against COMMENT tokens only, so a
# docstring *describing* the syntax never counts as a suppression.
_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable|disable-file)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\s]+)"
)

#: Directory names never descended into during discovery.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".ruff_cache", ".pytest_cache"})


class LintConfigError(Exception):
    """A problem with the lint invocation itself (bad rule id, missing
    path, unparseable source) — the CLI maps this to exit code 2 so CI
    can tell 'misconfigured' from 'found problems'."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    severity: str
    path: str  #: display path (as discovered, posix separators)
    line: int
    col: int
    message: str


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    files: int = 0
    suppressed: int = 0
    rules: list[Rule] = field(default_factory=list)
    #: graph-pass shape (zeros when no project rules ran)
    graph_modules: int = 0
    graph_edges: int = 0
    #: wall-clock per phase: file_pass / graph_build / graph_rules / total
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.findings

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return counts


class _Suppressions:
    """Per-file pragma state with fired/unfired tracking."""

    def __init__(self, source: str):
        self.line_rules: dict[int, set[str]] = {}
        self.file_rules: set[str] = set()
        self._pragma_line: dict[str, int] = {}  # file-level rule -> decl line
        self.used: set[tuple[int, str]] = set()  # (0, rule) == file-level
        try:
            comments = [
                (tok.start[0], tok.string)
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT
            ]
        except (tokenize.TokenError, SyntaxError, IndentationError):
            comments = []
        for lineno, text in comments:
            m = _PRAGMA_RE.search(text)
            if not m:
                continue
            rules = {r.strip().upper() for r in m.group("rules").split(",")}
            rules.discard("")
            if m.group("kind") == "disable":
                self.line_rules.setdefault(lineno, set()).update(rules)
            else:
                self.file_rules.update(rules)
                for rule in rules:
                    self._pragma_line.setdefault(rule, lineno)

    def suppresses(self, lineno: int, rule: str) -> bool:
        if rule in self.file_rules:
            self.used.add((0, rule))
            return True
        if rule in self.line_rules.get(lineno, ()):
            self.used.add((lineno, rule))
            return True
        return False

    def unused(self) -> list[tuple[int, str]]:
        """``(line, rule)`` for every pragma that never fired."""
        out = []
        for lineno, rules in sorted(self.line_rules.items()):
            out.extend(
                (lineno, rule)
                for rule in sorted(rules)
                if (lineno, rule) not in self.used
            )
        out.extend(
            (self._pragma_line[rule], rule)
            for rule in sorted(self.file_rules)
            if (0, rule) not in self.used
        )
        return out


def discover(paths: list[str]) -> list[tuple[Path, Path]]:
    """``(file, root)`` for every ``.py`` file under ``paths``, sorted.

    ``root`` is the path argument the file was found under (its parent
    for file arguments) — the anchor scope matching falls back to for
    trees that do not contain a ``repro`` package.
    """
    out: dict[Path, Path] = {}
    for raw in paths:
        p = Path(raw)
        if not p.exists():
            raise LintConfigError(f"no such path: {raw}")
        if p.is_file():
            out.setdefault(p, p.parent)
            continue
        for f in p.rglob("*.py"):
            if not any(part in _SKIP_DIRS for part in f.parts):
                out.setdefault(f, p)
    return sorted(out.items())


def scope_path(path: Path, root: Path | None = None) -> str:
    """The path rules match scopes against: relative to the ``repro``
    package when the file lives under one, relative to ``root`` otherwise
    (which is what fixture trees in tests use)."""
    posix = path.as_posix()
    idx = posix.rfind("repro/")
    if idx >= 0:
        return posix[idx + len("repro/"):]
    if root is not None:
        try:
            return path.relative_to(root).as_posix()
        except ValueError:
            pass
    return posix


@dataclass
class FileAnalysis:
    """Phase-one output for one file: everything phase two and the report
    need (findings, pragma state, summary)."""

    display: str  #: path as discovered (posix)
    rel: str  #: scope path
    findings: list[Finding]  #: per-file rule findings (no R000 yet)
    suppressed: int
    module: ModuleInfo
    sup: _Suppressions


class LintEngine:
    """Run a rule set over a file list."""

    def __init__(self, rules: list[Rule] | None = None):
        self.rules = rules if rules is not None else all_rules()
        self.file_rules = [r for r in self.rules if not isinstance(r, ProjectRule)]
        self.project_rules = [r for r in self.rules if isinstance(r, ProjectRule)]

    # ------------------------------------------------------------------
    # phase one
    # ------------------------------------------------------------------
    def analyze_file(self, path: Path, root: Path | None = None) -> FileAnalysis:
        """Parse one file, run the per-file rules, extract the summary."""
        try:
            source = path.read_text()
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError) as exc:
            raise LintConfigError(f"cannot lint {path}: {exc}") from exc
        lines = source.splitlines()
        rel = scope_path(path, root)
        display = path.as_posix()
        sup = _Suppressions(source)
        findings: list[Finding] = []
        suppressed = 0
        for rule in self.file_rules:
            if not rule.applies(rel):
                continue
            for line, col, message in rule.check(tree, lines, rel):
                if sup.suppresses(line, rule.id):
                    suppressed += 1
                    continue
                findings.append(
                    Finding(
                        rule=rule.id,
                        severity=rule.severity,
                        path=display,
                        line=line,
                        col=col,
                        message=message,
                    )
                )
        return FileAnalysis(
            display=display,
            rel=rel,
            findings=findings,
            suppressed=suppressed,
            module=extract_module(tree, rel, source),
            sup=sup,
        )

    def _unused_pragma_findings(self, analysis: FileAnalysis) -> list[Finding]:
        # A pragma can only be "unused" if its rule actually ran — a
        # `--rules R103` pass must not flag every R001 suppression.
        selected = {r.id for r in self.rules}
        findings = []
        for line, rule_id in analysis.sup.unused():
            if rule_id not in selected:
                continue
            findings.append(
                Finding(
                    rule="R000",
                    severity="warning",
                    path=analysis.display,
                    line=line,
                    col=0,
                    message=(
                        f"unused suppression: {rule_id} never fires here — "
                        "remove the pragma"
                    ),
                )
            )
        return findings

    def lint_file(
        self, path: Path, root: Path | None = None
    ) -> tuple[list[Finding], int]:
        """All per-file findings for one file plus its suppressed count.

        Single-file view: per-file rules and unused-pragma reporting run;
        the whole-program rules need :meth:`run`'s graph pass and are not
        represented here.
        """
        analysis = self.analyze_file(path, root)
        findings = analysis.findings + self._unused_pragma_findings(analysis)
        findings.sort(key=lambda f: (f.line, f.col, f.rule))
        return findings, analysis.suppressed

    # ------------------------------------------------------------------
    # phase two
    # ------------------------------------------------------------------
    def _project_findings(
        self, analyses: list[FileAnalysis], result: LintResult
    ) -> dict[str, list[Finding]]:
        """Run the whole-program rules; findings grouped by display path."""
        by_rel = {a.rel: a for a in analyses}
        t0 = time.perf_counter()
        graph = ProjectGraph([a.module for a in analyses])
        result.graph_modules = len(graph.modules)
        result.graph_edges = len(graph.import_edges())
        t1 = time.perf_counter()
        out: dict[str, list[Finding]] = {}
        for rule in self.project_rules:
            for rel, line, col, message in rule.check_project(graph):
                analysis = by_rel.get(rel)
                if analysis is None or not rule.applies(rel):
                    continue
                if analysis.sup.suppresses(line, rule.id):
                    result.suppressed += 1
                    continue
                out.setdefault(analysis.display, []).append(
                    Finding(
                        rule=rule.id,
                        severity=rule.severity,
                        path=analysis.display,
                        line=line,
                        col=col,
                        message=message,
                    )
                )
        t2 = time.perf_counter()
        result.timings["graph_build"] = t1 - t0
        result.timings["graph_rules"] = t2 - t1
        return out

    # ------------------------------------------------------------------
    # the full run
    # ------------------------------------------------------------------
    def run(self, paths: list[str]) -> LintResult:
        """Lint every file under ``paths``: both phases, from cold."""
        t_start = time.perf_counter()
        result = LintResult(rules=list(self.rules))
        analyses = [self.analyze_file(path, root) for path, root in discover(paths)]
        analyses.sort(key=lambda a: a.display)
        result.files = len(analyses)
        result.timings["file_pass"] = time.perf_counter() - t_start

        # Phase two: the whole-program pass (skipped when no project rule
        # is selected — e.g. `--rules R001`).
        project_by_file: dict[str, list[Finding]] = {}
        if self.project_rules:
            project_by_file = self._project_findings(analyses, result)

        for analysis in analyses:
            file_findings = (
                project_by_file.get(analysis.display, [])
                + analysis.findings
                + self._unused_pragma_findings(analysis)
            )
            result.suppressed += analysis.suppressed
            file_findings.sort(key=lambda f: (f.line, f.col, f.rule))
            result.findings.extend(file_findings)
        result.timings["total"] = time.perf_counter() - t_start
        return result
