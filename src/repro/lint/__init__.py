"""AST-based invariant linter for the repo's own discipline rules.

Generic linters catch style; this package catches the invariants that
keep the *reproduction* honest and that a reviewer cannot reliably see
in a diff (see docs/LINTING.md for the catalog and fix recipes):

* **R001 backend-discipline** — no raw NumPy compute in backend-routed
  modules; array math flows through :class:`repro.backend.Backend`.
* **R002 determinism** — no wall clocks or unseeded RNG in simulation
  paths; failover replay stays bit-identical.
* **R003 precision-discipline** — float dtypes come from
  ``PrecisionPolicy``, never hard-coded literals.
* **R004 telemetry-hygiene** — spans are context-managed; literal metric
  names are lowercase dotted, in a namespace of
  :data:`repro.telemetry.names.METRIC_NAMES`.
* **R005 exception-discipline** — no bare ``except:`` / swallowed broad
  handlers around solver control flow.

On top of the per-file pass, a whole-program phase assembles a
:class:`~repro.lint.graph.ProjectGraph` (imports, dataclass fields,
tracked call literals, protocol-constant uses) and runs the
cross-module rules against it:

* **R100 architecture-layering** — the declared layer map holds: lower
  layers never import serving/app code, telemetry is reached only
  through the sanctioned seams, eager import cycles are forbidden.
* **R101 cache-key-completeness** — every field of a request dataclass
  is either read by its digest methods or carries an explicit
  ``# repro-lint: non-keying=<reason>`` pragma.
* **R102 telemetry-registry** — every literal metric/span name is
  registered in :mod:`repro.telemetry.names`, and every registered name
  is emitted somewhere.
* **R103 worker-protocol** — every fleet protocol verb that is sent has
  a handler comparison on the other side of the process boundary, and
  vice versa.

Run it with ``repro lint``: every call is one cold run of both phases
over the given paths (``src`` by default), and any finding fails it.
"""

from repro.lint.engine import (
    FileAnalysis,
    Finding,
    LintConfigError,
    LintEngine,
    LintResult,
    scope_path,
)
from repro.lint.graph import ModuleInfo, ProjectGraph, extract_module
from repro.lint.report import (
    format_github,
    format_json,
    format_stats,
    format_text,
)
from repro.lint.rules import (
    RULE_REGISTRY,
    ProjectRule,
    Rule,
    all_rules,
    get_rules,
    register,
)

__all__ = [
    "FileAnalysis",
    "Finding",
    "LintConfigError",
    "LintEngine",
    "LintResult",
    "ModuleInfo",
    "ProjectGraph",
    "ProjectRule",
    "Rule",
    "RULE_REGISTRY",
    "all_rules",
    "get_rules",
    "register",
    "extract_module",
    "scope_path",
    "format_text",
    "format_json",
    "format_github",
    "format_stats",
]
