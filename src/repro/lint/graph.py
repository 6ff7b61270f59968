"""Phase one of the whole-program analyzer: the :class:`ProjectGraph`.

The per-file rules (R001–R005) see one module at a time, which is
exactly why they cannot catch the bug classes that bit recent PRs: a
request field that affects the solve but never enters a cache digest, a
core module quietly importing serving code, a worker-protocol verb
handled on one side of the pickle boundary only.  This module extracts a
flat summary of every file — imports, dataclass fields,
``self.x`` usage per method, string-literal call sites, module-level
string constants and name-set registries — and assembles the summaries
into one :class:`ProjectGraph` that the cross-module rules (R100–R103)
query.

Dotted module names are derived from the path *relative to the*
``repro`` *package* (``serve/requests.py`` → ``repro.serve.requests``),
the same convention rule scopes use — so fixture trees in tests get the
same treatment as the real tree.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field

import networkx as nx

#: Pragma marking a request field as deliberately absent from the cache
#: digests (R101).  The reason is mandatory: ``# repro-lint:
#: non-keying=identity only, echoed on the response``.
NON_KEYING_RE = re.compile(
    r"#\s*repro-lint:\s*non-keying\s*(?:=\s*(?P<reason>.*?))?\s*$"
)

#: Attribute-call names whose literal first argument enters the
#: string-literal registry: the telemetry emission points R102
#: cross-checks.
TRACKED_CALL_ATTRS = frozenset(
    {"counter", "gauge", "histogram", "span", "add_complete", "add_modeled"}
)

#: Bare-name loads worth tracking for send/compare roles: module-level
#: constant spellings (R103's protocol verbs are all ALL_CAPS).
_CONST_NAME_RE = re.compile(r"^[A-Z][A-Z0-9_]+$")


@dataclass
class ImportEdge:
    """One import statement's repro-internal target.

    ``lazy`` marks imports nested inside a function body — the repo's
    deliberate decoupling seams ("repro.stochastic must stay importable
    without the serving stack").  Layering rules count lazy edges; the
    cycle check only counts eager ones, because a lazy edge never forms
    an import-time cycle.
    """

    target: str  #: absolute dotted module as written/resolved
    names: list[str] = field(default_factory=list)  #: from-import names
    line: int = 0
    lazy: bool = False


@dataclass
class MethodInfo:
    """Per-method ``self`` usage: which attributes it reads and which of
    the class's own methods it calls (one level of the transitive-read
    closure R101 computes)."""

    name: str
    line: int = 0
    self_reads: list[str] = field(default_factory=list)
    self_calls: list[str] = field(default_factory=list)


@dataclass
class FieldInfo:
    """One annotated dataclass field (``ClassVar`` annotations excluded)."""

    name: str
    line: int = 0
    non_keying: bool = False  #: carries a ``non-keying`` pragma
    non_keying_reason: str = ""


@dataclass
class ClassInfo:
    name: str
    line: int = 0
    is_dataclass: bool = False
    fields: list[FieldInfo] = field(default_factory=list)
    methods: dict[str, MethodInfo] = field(default_factory=dict)


@dataclass
class CallLiteral:
    """A string literal passed as the first argument of an attribute call
    (``registry.counter("serve.latency_s")`` → value/``counter``)."""

    value: str
    line: int
    col: int
    attr: str


@dataclass
class StrConstant:
    """A module-level ``NAME = "literal"`` binding."""

    name: str
    value: str
    line: int


@dataclass
class NameUse:
    """One load of a bare name, classified by syntactic role: ``send``
    (inside a call's arguments) or ``compare`` (operand of a comparison).
    R103 uses these to prove both sides of the worker protocol exist."""

    name: str
    line: int
    role: str  # "send" | "compare"


@dataclass
class ModuleInfo:
    """Everything the cross-module rules need to know about one file."""

    rel: str  #: scope path, e.g. ``serve/requests.py``
    module: str  #: dotted name, e.g. ``repro.serve.requests``
    imports: list[ImportEdge] = field(default_factory=list)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    call_literals: list[CallLiteral] = field(default_factory=list)
    constants: dict[str, StrConstant] = field(default_factory=dict)
    #: module-level ``NAME = frozenset({"a", "b"})``-style registries:
    #: name -> [(value, line), ...]
    string_sets: dict[str, list[tuple[str, int]]] = field(default_factory=dict)
    name_uses: list[NameUse] = field(default_factory=list)

    @property
    def package(self) -> str:
        """Top-level package of the module (``""`` for root files)."""
        return self.rel.split("/", 1)[0] if "/" in self.rel else ""


def module_name(rel: str) -> str:
    """Dotted module name of a scope path (``repro``-rooted)."""
    parts = rel[:-3].split("/") if rel.endswith(".py") else rel.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(["repro"] + [p for p in parts if p])


def _non_keying_pragmas(source: str) -> dict[int, str]:
    """Line -> reason for every ``non-keying`` pragma in ``source``."""
    out: dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (tok.start[0], tok.string)
            for tok in tokens
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, SyntaxError, IndentationError):
        comments = []
    for lineno, text in comments:
        m = NON_KEYING_RE.search(text)
        if m:
            out[lineno] = (m.group("reason") or "").strip()
    return out


def _str_elements(node: ast.AST) -> list[tuple[str, int]] | None:
    """``(value, line)`` pairs if ``node`` is a literal collection of
    strings (optionally wrapped in ``frozenset(...)``/``set(...)``)."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("frozenset", "set", "tuple", "sorted")
        and len(node.args) == 1
    ):
        node = node.args[0]
    if not isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        return None
    out = []
    for elt in node.elts:
        if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
            return None
        out.append((elt.value, elt.lineno))
    return out


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _is_classvar(annotation: ast.AST) -> bool:
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Name):
        return target.id == "ClassVar"
    if isinstance(target, ast.Attribute):
        return target.attr == "ClassVar"
    return False


def _method_info(node: ast.AST) -> MethodInfo:
    reads: list[str] = []
    calls: list[str] = []
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
        ):
            reads.append(sub.attr)
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and isinstance(sub.func.value, ast.Name)
            and sub.func.value.id == "self"
        ):
            calls.append(sub.func.attr)
    return MethodInfo(
        name=node.name,
        line=node.lineno,
        self_reads=sorted(set(reads)),
        self_calls=sorted(set(calls)),
    )


def _class_info(node: ast.ClassDef, pragmas: dict[int, str]) -> ClassInfo:
    info = ClassInfo(
        name=node.name, line=node.lineno, is_dataclass=_is_dataclass_decorated(node)
    )
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if _is_classvar(stmt.annotation):
                continue
            reason = pragmas.get(stmt.lineno)
            info.fields.append(
                FieldInfo(
                    name=stmt.target.id,
                    line=stmt.lineno,
                    non_keying=reason is not None,
                    non_keying_reason=reason or "",
                )
            )
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods[stmt.name] = _method_info(stmt)
    return info


class _Extractor(ast.NodeVisitor):
    def __init__(self, info: ModuleInfo, pragmas: dict[int, str]):
        self.info = info
        self.pragmas = pragmas
        self._depth = 0  # function-nesting depth: >0 means lazy imports

    # -- imports -----------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "repro" or alias.name.startswith("repro."):
                self.info.imports.append(
                    ImportEdge(
                        target=alias.name, line=node.lineno, lazy=self._depth > 0
                    )
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        target = node.module or ""
        if node.level:
            # Resolve relative imports against this module's dotted name:
            # ``from ..sampler import X`` in repro.stochastic.solve.
            base = self.info.module
            if not self.info.rel.endswith("__init__.py"):
                base = base.rsplit(".", 1)[0] if "." in base else base
            for _ in range(node.level - 1):
                base = base.rsplit(".", 1)[0] if "." in base else base
            target = f"{base}.{target}" if target else base
        if target == "repro" or target.startswith("repro."):
            self.info.imports.append(
                ImportEdge(
                    target=target,
                    names=[a.name for a in node.names],
                    line=node.lineno,
                    lazy=self._depth > 0,
                )
            )
        self.generic_visit(node)

    # -- functions / classes ----------------------------------------------
    def visit_FunctionDef(self, node) -> None:
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.info.classes[node.name] = _class_info(node, self.pragmas)
        self.generic_visit(node)

    # -- module-level constants and registries ----------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        if self._depth == 0 and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                if isinstance(node.value, ast.Constant) and isinstance(
                    node.value.value, str
                ):
                    self.info.constants[target.id] = StrConstant(
                        name=target.id, value=node.value.value, line=node.lineno
                    )
                else:
                    elements = _str_elements(node.value)
                    if elements is not None:
                        self.info.string_sets[target.id] = elements
        self.generic_visit(node)

    # -- calls: literal names and name sends ------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in TRACKED_CALL_ATTRS
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            self.info.call_literals.append(
                CallLiteral(
                    value=node.args[0].value,
                    line=node.args[0].lineno,
                    col=node.args[0].col_offset,
                    attr=node.func.attr,
                )
            )
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for sub in ast.walk(arg):
                if (
                    isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Load)
                    and _CONST_NAME_RE.match(sub.id)
                ):
                    self.info.name_uses.append(
                        NameUse(name=sub.id, line=sub.lineno, role="send")
                    )
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        for operand in [node.left] + list(node.comparators):
            for sub in ast.walk(operand):
                if (
                    isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Load)
                    and _CONST_NAME_RE.match(sub.id)
                ):
                    self.info.name_uses.append(
                        NameUse(name=sub.id, line=sub.lineno, role="compare")
                    )
        self.generic_visit(node)


def extract_module(tree: ast.AST, rel: str, source: str) -> ModuleInfo:
    """Build one file's :class:`ModuleInfo` from its parsed tree."""
    info = ModuleInfo(rel=rel, module=module_name(rel))
    _Extractor(info, _non_keying_pragmas(source)).visit(tree)
    return info


class ProjectGraph:
    """The assembled whole-program view the cross-module rules query."""

    def __init__(self, modules: list[ModuleInfo]):
        self.modules = sorted(modules, key=lambda m: m.rel)
        self.by_rel = {m.rel: m for m in self.modules}
        self.by_module = {m.module: m for m in self.modules}

    # -- imports -----------------------------------------------------------
    def resolve_target(self, edge: ImportEdge) -> list[str]:
        """Dotted modules an edge points at, submodule-resolved.

        ``from repro.serve import requests`` targets ``repro.serve`` in
        the source text but ``repro.serve.requests`` in the graph; a
        from-import whose name is not a submodule collapses to the
        target module itself.
        """
        resolved = []
        for name in edge.names or [None]:
            cand = f"{edge.target}.{name}" if name else None
            if cand and cand in self.by_module:
                resolved.append(cand)
            else:
                resolved.append(edge.target)
        return sorted(set(resolved))

    def import_edges(
        self, include_lazy: bool = True
    ) -> list[tuple[str, str, int, bool]]:
        """``(src_module, dst_module, line, lazy)`` for every internal
        edge whose destination exists in the graph."""
        out = []
        for mod in self.modules:
            for edge in mod.imports:
                for dst in self.resolve_target(edge):
                    if dst in self.by_module and dst != mod.module:
                        if include_lazy or not edge.lazy:
                            out.append((mod.module, dst, edge.line, edge.lazy))
        return out

    def package_edges(self) -> dict[str, set[str]]:
        """Package -> imported packages (lazy edges included)."""
        out: dict[str, set[str]] = {}
        for src, dst, _, _ in self.import_edges():
            sp = self.by_module[src].package
            dp = self.by_module[dst].package
            if sp != dp:
                out.setdefault(sp, set()).add(dp)
        return out

    def import_cycles(self) -> list[list[str]]:
        """Import cycles over *eager* edges only (a lazy import never
        participates in an import-time cycle): one per strongly connected
        component, deterministically ordered.

        Each cycle is the module path of an actual import chain: it starts
        at the smallest module of its component and takes the shortest way
        back to it from that module's smallest in-component import, so
        every consecutive pair (and last → first) is an edge.

        A package ``__init__`` importing its *own* submodules is the
        re-export / plugin-registry idiom (Python resolves the apparent
        cycle via partially-initialized modules, by construction: the
        ``__init__`` finishes defining everything the submodule needs
        before importing it); those parent→child edges are excluded
        here, though they still count for layering.
        """
        graph = nx.DiGraph()
        graph.add_nodes_from(sorted(self.by_module))
        graph.add_edges_from(
            sorted(
                (src, dst)
                for src, dst, _, lazy in self.import_edges()
                if not lazy and not dst.startswith(src + ".")
            )
        )
        cycles = []
        for component in nx.strongly_connected_components(graph):
            if len(component) < 2:
                continue
            sub = graph.subgraph(component)
            first = min(component)
            back = nx.shortest_path(sub, min(sub.successors(first)), first)
            cycles.append([first] + back[:-1])
        return sorted(cycles)

    # -- cross-module lookups ---------------------------------------------
    def string_set(self, rel_suffix: str, name: str) -> list[tuple[str, int, str]]:
        """``(value, line, rel)`` elements of registry ``name`` in the
        module whose scope path ends with ``rel_suffix`` (empty when the
        registry module is absent — rules then skip their check)."""
        for mod in self.modules:
            if mod.rel.endswith(rel_suffix) and name in mod.string_sets:
                return [
                    (value, line, mod.rel)
                    for value, line in mod.string_sets[name]
                ]
        return []

    def constants_matching(self, pattern: str) -> list[tuple[ModuleInfo, StrConstant]]:
        """Every module-level string constant whose *value* matches."""
        regex = re.compile(pattern)
        out = []
        for mod in self.modules:
            for const in mod.constants.values():
                if regex.match(const.value):
                    out.append((mod, const))
        return out

    def name_uses(self, name: str) -> list[tuple[ModuleInfo, NameUse]]:
        return [
            (mod, use)
            for mod in self.modules
            for use in mod.name_uses
            if use.name == name
        ]
