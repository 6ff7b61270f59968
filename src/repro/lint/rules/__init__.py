"""Rule registry for :mod:`repro.lint`.

A *rule* is a small AST checker with an identity (``R001``), a severity,
a human-readable rationale, and a *scope* — the set of module-relative
path prefixes it applies to.  Rules register themselves with the
:func:`register` decorator at import time; :func:`all_rules` returns one
instance of every registered rule, and :func:`get_rules` resolves a
user-supplied selection (``--rules R001,R002``).

The registry is deliberately open: a future rule only needs a module in
``repro/lint/rules/`` with a ``@register``-decorated subclass of
:class:`Rule` plus an import line at the bottom of this file.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator


class Rule:
    """One invariant checker.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding ``(line, col, message)`` triples.  ``scope`` is a tuple of
    module-relative path prefixes (``"core/"``, ``"parallel/runner.py"``);
    an empty tuple means the rule applies everywhere.  Rules that need an
    *exclusion* scope override :meth:`applies` instead.
    """

    id: str = "R000"
    name: str = "unnamed"
    severity: str = "error"
    rationale: str = ""
    scope: tuple[str, ...] = ()

    def applies(self, relpath: str) -> bool:
        if not self.scope:
            return True
        return any(
            relpath == prefix or relpath.startswith(prefix) for prefix in self.scope
        )

    def check(
        self, tree: ast.AST, lines: list[str], relpath: str
    ) -> Iterator[tuple[int, int, str]]:
        raise NotImplementedError

    def describe(self) -> dict:
        """Machine-readable rule card (the ``--format json`` rule list)."""
        return {
            "id": self.id,
            "name": self.name,
            "severity": self.severity,
            "scope": list(self.scope),
            "rationale": self.rationale,
        }


class ProjectRule(Rule):
    """A whole-program rule: runs once against the assembled
    :class:`~repro.lint.graph.ProjectGraph` instead of per file.

    Subclasses implement :meth:`check_project`, yielding ``(relpath,
    line, col, message)`` — the engine attributes each finding back to
    its file so suppression pragmas work unchanged.
    ``scope`` filters which files a project rule's findings may land in
    (the analysis itself always sees the whole graph).
    """

    def check(self, tree, lines, relpath):
        return iter(())  # project rules have no per-file pass

    def check_project(self, graph) -> Iterator[tuple[str, int, int, str]]:
        raise NotImplementedError


#: id -> rule class, in registration order.
RULE_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (id collisions fatal)."""
    if cls.id in RULE_REGISTRY:
        raise ValueError(f"duplicate lint rule id {cls.id}")
    RULE_REGISTRY[cls.id] = cls
    return cls


def all_rules() -> list[Rule]:
    """One fresh instance of every registered rule, ordered by id."""
    return [RULE_REGISTRY[rid]() for rid in sorted(RULE_REGISTRY)]


def get_rules(ids: Iterable[str] | None) -> list[Rule]:
    """Resolve a rule-id selection; ``None`` selects every rule.

    Raises
    ------
    KeyError
        On an unknown rule id (the CLI maps this to exit code 2).
    """
    if ids is None:
        return all_rules()
    selected = []
    for rid in ids:
        rid = rid.strip().upper()
        if not rid:
            continue
        if rid not in RULE_REGISTRY:
            known = ", ".join(sorted(RULE_REGISTRY))
            raise KeyError(f"unknown lint rule {rid!r} (known: {known})")
        selected.append(RULE_REGISTRY[rid]())
    if not selected:
        raise KeyError("empty rule selection")
    return selected


# Rule modules self-register on import (kept at the bottom so they can
# import Rule/register from this module).
from repro.lint.rules import backend_discipline  # noqa: E402,F401
from repro.lint.rules import determinism  # noqa: E402,F401
from repro.lint.rules import exception_discipline  # noqa: E402,F401
from repro.lint.rules import precision  # noqa: E402,F401
from repro.lint.rules import telemetry_hygiene  # noqa: E402,F401

# Whole-program rules (R100+): run against the ProjectGraph.
from repro.lint.rules import architecture  # noqa: E402,F401
from repro.lint.rules import cache_keys  # noqa: E402,F401
from repro.lint.rules import telemetry_registry  # noqa: E402,F401
from repro.lint.rules import protocol  # noqa: E402,F401
