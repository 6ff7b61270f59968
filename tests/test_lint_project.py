"""Tests for the whole-program lint phase: ProjectGraph, rules R100–R103,
and the golden import snapshot."""

import json
from pathlib import Path

from repro.lint import LintEngine, ProjectGraph, get_rules
from repro.lint.engine import discover

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "data" / "project_graph_imports.json"


def run_rules(tmp_path, files: dict[str, str], rules):
    """Write a fixture tree and run the selected rules over it."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return LintEngine(get_rules(rules)).run([str(tmp_path)])


def messages(result):
    return [f"{f.path.split('/')[-1]}:{f.line}: {f.message}" for f in result.findings]


def build_graph(src_root: str) -> ProjectGraph:
    engine = LintEngine()
    analyses = [engine.analyze_file(p, r) for p, r in discover([src_root])]
    return ProjectGraph([a.module for a in analyses])


class TestProjectGraph:
    def test_module_naming_and_packages(self, tmp_path):
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "__init__.py").write_text("")
        (tmp_path / "core" / "loop.py").write_text("import repro.core\n")
        graph = build_graph(str(tmp_path))
        assert set(graph.by_module) == {"repro.core", "repro.core.loop"}
        assert graph.by_module["repro.core.loop"].package == "core"

    def test_from_import_submodule_resolution(self, tmp_path):
        files = {
            "serve/__init__.py": "",
            "serve/engine.py": "",
            "fleet/f.py": "from repro.serve import engine\n",
        }
        for rel, src in files.items():
            p = tmp_path / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(src)
        graph = build_graph(str(tmp_path))
        edges = {(s, d) for s, d, _, _ in graph.import_edges()}
        assert ("repro.fleet.f", "repro.serve.engine") in edges

    def test_lazy_import_marked(self, tmp_path):
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "a.py").write_text(
            "def f():\n    from repro.core import b\n    return b\n"
        )
        (tmp_path / "core" / "b.py").write_text("")
        graph = build_graph(str(tmp_path))
        lazies = [lazy for _, _, _, lazy in graph.import_edges()]
        assert lazies == [True]


class TestGoldenGraph:
    """The package-level import edges of src/repro are pinned.

    On a deliberate dependency change, regenerate with
    ``PYTHONPATH=src python tests/regen_project_graph.py`` and review the
    diff edge by edge.
    """

    def test_package_edges_match_golden(self):
        from tests.regen_project_graph import snapshot

        golden = json.loads(GOLDEN.read_text())["packages"]
        current = snapshot(str(REPO / "src"))
        assert current == golden, (
            "package-level import edges drifted from the golden snapshot — "
            "if deliberate, regenerate with "
            "`PYTHONPATH=src python tests/regen_project_graph.py`"
        )

    def test_no_serving_imports_from_below(self):
        golden = json.loads(GOLDEN.read_text())["packages"]
        lower = {
            "utils", "telemetry", "backend", "qp",
            "network", "formulation", "feeders",
            "core", "decomposition", "socp", "reference", "io",
            "parallel", "gpu", "resilience", "methods",
            "multiperiod", "stochastic",
        }
        for pkg in lower:
            assert not ({"serve", "fleet", "cli"} & set(golden.get(pkg, []))), (
                f"{pkg} imports serving/app code"
            )


class TestArchitectureLayering:
    def test_layering_escape_flagged(self, tmp_path):
        result = run_rules(
            tmp_path,
            {
                "core/a.py": "from repro.serve import b\n",
                "serve/b.py": "",
            },
            ["R100"],
        )
        assert len(result.findings) == 1
        assert "layering escape" in result.findings[0].message

    def test_downward_import_clean(self, tmp_path):
        result = run_rules(
            tmp_path,
            {
                "serve/b.py": "from repro.core import a\n",
                "core/a.py": "",
            },
            ["R100"],
        )
        assert result.findings == []

    def test_telemetry_outside_seam_flagged(self, tmp_path):
        result = run_rules(
            tmp_path,
            {
                "decomposition/d.py": "from repro.telemetry import metrics\n",
                "telemetry/metrics.py": "",
            },
            ["R100"],
        )
        assert len(result.findings) == 1
        assert "adapter seams" in result.findings[0].message

    def test_telemetry_seam_allowed(self, tmp_path):
        result = run_rules(
            tmp_path,
            {
                "utils/timing.py": "from repro.telemetry import metrics\n",
                "telemetry/metrics.py": "",
            },
            ["R100"],
        )
        assert result.findings == []

    def test_serving_layer_telemetry_allowed(self, tmp_path):
        result = run_rules(
            tmp_path,
            {
                "serve/s.py": "from repro.telemetry import metrics\n",
                "telemetry/metrics.py": "",
            },
            ["R100"],
        )
        assert result.findings == []

    def test_eager_cycle_flagged(self, tmp_path):
        result = run_rules(
            tmp_path,
            {
                "core/a.py": "from repro.core import b\n",
                "core/b.py": "from repro.core import a\n",
            },
            ["R100"],
        )
        assert len(result.findings) == 1
        assert "eager import cycle" in result.findings[0].message
        assert "repro.core.a -> repro.core.b -> repro.core.a" in (
            result.findings[0].message
        )

    def test_three_module_cycle_names_real_edges(self, tmp_path):
        result = run_rules(
            tmp_path,
            {
                "core/a.py": "from repro.core import c\n",
                "core/b.py": "from repro.core import a\n",
                "core/c.py": "from repro.core import b\n",
            },
            ["R100"],
        )
        assert len(result.findings) == 1
        assert result.findings[0].path.endswith("core/a.py")
        assert (
            "repro.core.a -> repro.core.c -> repro.core.b -> repro.core.a"
            in result.findings[0].message
        )

    def test_lazy_import_breaks_cycle(self, tmp_path):
        result = run_rules(
            tmp_path,
            {
                "core/a.py": "from repro.core import b\n",
                "core/b.py": (
                    "def f():\n    from repro.core import a\n    return a\n"
                ),
            },
            ["R100"],
        )
        assert result.findings == []

    def test_init_reexport_not_a_cycle(self, tmp_path):
        result = run_rules(
            tmp_path,
            {
                "core/__init__.py": "from repro.core import a\n",
                "core/a.py": "import repro.core\n",
            },
            ["R100"],
        )
        assert result.findings == []

    def test_unknown_package_flagged(self, tmp_path):
        result = run_rules(tmp_path, {"mystery/x.py": "x = 1\n"}, ["R100"])
        assert len(result.findings) == 1
        assert "not in the declared layer map" in result.findings[0].message

    def test_suppression_pragma_honoured(self, tmp_path):
        result = run_rules(
            tmp_path,
            {
                "core/a.py": (
                    "from repro.serve import b  # repro-lint: disable=R100\n"
                ),
                "serve/b.py": "",
            },
            ["R100"],
        )
        assert result.findings == []
        assert result.suppressed == 1


R101_TEMPLATE = """\
from dataclasses import dataclass, field


@dataclass
class Req:
{fields}
    def topology_key(self):
        return hash(self.feeder)

    def scenario_key(self):
        return self._payload()

    def _payload(self):
        return (self.feeder, self.scale)
"""


class TestCacheKeyCompleteness:
    def _run(self, tmp_path, fields):
        return run_rules(
            tmp_path,
            {"serve/reqs.py": R101_TEMPLATE.format(fields=fields)},
            ["R101"],
        )

    def test_unkeyed_field_flagged(self, tmp_path):
        result = self._run(
            tmp_path,
            "    feeder: str\n    scale: float = 1.0\n    extra: int = 0\n\n",
        )
        assert len(result.findings) == 1
        assert "unkeyed field: Req.extra" in result.findings[0].message

    def test_all_keyed_clean(self, tmp_path):
        result = self._run(
            tmp_path, "    feeder: str\n    scale: float = 1.0\n\n"
        )
        assert result.findings == []

    def test_transitive_reads_count(self, tmp_path):
        # `scale` is read only by the _payload() helper scenario_key()
        # calls — the closure over self-calls must see it as keyed (the
        # clean run above already proves this; here the helper chain is
        # two hops deep).
        source = """\
from dataclasses import dataclass


@dataclass
class Req:
    feeder: str
    scale: float = 1.0

    def topology_key(self):
        return self._outer()

    def scenario_key(self):
        return self._outer()

    def _outer(self):
        return self._inner()

    def _inner(self):
        return (self.feeder, self.scale)
"""
        result = run_rules(tmp_path, {"serve/reqs.py": source}, ["R101"])
        assert result.findings == []

    def test_non_keying_pragma_accepted(self, tmp_path):
        result = self._run(
            tmp_path,
            "    feeder: str\n    scale: float = 1.0\n"
            "    request_id: str = \"\"  # repro-lint: non-keying=echo token\n\n",
        )
        assert result.findings == []

    def test_pragma_without_reason_flagged(self, tmp_path):
        result = self._run(
            tmp_path,
            "    feeder: str\n    scale: float = 1.0\n"
            "    request_id: str = \"\"  # repro-lint: non-keying\n\n",
        )
        assert len(result.findings) == 1
        assert "no reason" in result.findings[0].message

    def test_stale_pragma_flagged(self, tmp_path):
        result = self._run(
            tmp_path,
            "    feeder: str  # repro-lint: non-keying=wrong, it is keyed\n"
            "    scale: float = 1.0\n\n",
        )
        assert len(result.findings) == 1
        assert "stale non-keying pragma" in result.findings[0].message

    def test_non_dataclass_ignored(self, tmp_path):
        source = (
            "class Plain:\n"
            "    def topology_key(self):\n"
            "        return 1\n"
            "    def scenario_key(self):\n"
            "        return 2\n"
        )
        result = run_rules(tmp_path, {"serve/reqs.py": source}, ["R101"])
        assert result.findings == []


R102_REGISTRY = """\
METRIC_NAMES = frozenset({
    "serve.good",
    "serve.orphan",
})

SPAN_NAMES = frozenset({
    "serve.span",
})
"""


class TestTelemetryRegistry:
    def test_unregistered_and_orphan_flagged(self, tmp_path):
        result = run_rules(
            tmp_path,
            {
                "telemetry/names.py": R102_REGISTRY,
                "serve/m.py": (
                    "def f(reg, tracer):\n"
                    "    reg.counter(\"serve.good\").inc()\n"
                    "    reg.counter(\"serve.typo\").inc()\n"
                    "    with tracer.span(\"serve.span\"):\n"
                    "        pass\n"
                ),
            },
            ["R102"],
        )
        assert len(result.findings) == 2
        msgs = " | ".join(f.message for f in result.findings)
        assert "'serve.typo' is not registered" in msgs
        assert "'serve.orphan' is never emitted" in msgs

    def test_fully_consistent_clean(self, tmp_path):
        result = run_rules(
            tmp_path,
            {
                "telemetry/names.py": (
                    "METRIC_NAMES = frozenset({\"serve.good\"})\n"
                    "SPAN_NAMES = frozenset({\"serve.span\"})\n"
                ),
                "serve/m.py": (
                    "def f(reg, tracer):\n"
                    "    reg.counter(\"serve.good\").inc()\n"
                    "    with tracer.span(\"serve.span\"):\n"
                    "        pass\n"
                ),
            },
            ["R102"],
        )
        assert result.findings == []

    def test_tree_without_registry_skips(self, tmp_path):
        result = run_rules(
            tmp_path,
            {"serve/m.py": "def f(reg):\n    reg.counter(\"serve.x\").inc()\n"},
            ["R102"],
        )
        assert result.findings == []

    def test_repo_registry_is_complete(self):
        """Every literal metric/span in src/repro is registered and used —
        the cross-module tier-1 guarantee for the telemetry namespace."""
        result = LintEngine(get_rules(["R102"])).run([str(REPO / "src")])
        assert result.findings == [], messages(result)


R103_FIXTURE = """\
VERB_OK = "__ok__"
VERB_SENT_ONLY = "__sent__"
VERB_HANDLED_ONLY = "__handled__"
VERB_DEAD = "__dead__"
NOT_A_VERB = "plain string"


def send(q):
    q.put((VERB_OK, 1))
    q.put((VERB_SENT_ONLY, 2))


def handle(kind):
    if kind == VERB_OK:
        return 1
    if kind == VERB_HANDLED_ONLY:
        return 2
    return 0
"""


class TestWorkerProtocol:
    def test_one_sided_verbs_flagged(self, tmp_path):
        result = run_rules(tmp_path, {"fleet/w.py": R103_FIXTURE}, ["R103"])
        by_line = {f.line: f.message for f in result.findings}
        assert len(result.findings) == 3
        assert "sent but no handler" in by_line[2]  # VERB_SENT_ONLY
        assert "never sent" in by_line[3]  # VERB_HANDLED_ONLY
        assert "dead protocol surface" in by_line[4]  # VERB_DEAD

    def test_cross_module_send_and_handle_clean(self, tmp_path):
        result = run_rules(
            tmp_path,
            {
                "fleet/proto.py": "VERB = \"__go__\"\n",
                "fleet/sender.py": (
                    "from repro.fleet.proto import VERB\n\n"
                    "def send(q):\n    q.put((VERB, None))\n"
                ),
                "fleet/worker.py": (
                    "from repro.fleet.proto import VERB\n\n"
                    "def handle(kind):\n    return kind == VERB\n"
                ),
            },
            ["R103"],
        )
        assert result.findings == []

    def test_membership_comparison_counts_as_handle(self, tmp_path):
        result = run_rules(
            tmp_path,
            {
                "fleet/w.py": (
                    "VA = \"__a__\"\nVB = \"__b__\"\n\n"
                    "def send(q):\n    q.put((VA, 1))\n    q.put((VB, 2))\n\n"
                    "def handle(kind):\n    return kind in (VA, VB)\n"
                ),
            },
            ["R103"],
        )
        assert result.findings == []

    def test_repo_protocol_is_two_sided(self):
        """Every __verb__ in src/repro has both a sender and a handler —
        the cross-module tier-1 guarantee for the fleet protocol."""
        result = LintEngine(get_rules(["R103"])).run([str(REPO / "src")])
        assert result.findings == [], messages(result)


class TestRepoCrossModuleClean:
    def test_scoped_paths_name_existing_modules(self):
        """A stale entry in a rule scope or the seam list would silently
        narrow that rule: every one must name a module under src/repro."""
        from repro.lint import all_rules
        from repro.lint.rules.architecture import TELEMETRY_SEAMS

        root = REPO / "src" / "repro"
        paths = {p for rule in all_rules() for p in rule.scope} | TELEMETRY_SEAMS
        missing = sorted(
            p for p in paths
            if not ((root / p).is_dir() if p.endswith("/") else (root / p).is_file())
        )
        assert missing == []

    def test_all_project_rules_clean_on_src(self):
        """R100–R103 pass over the real tree."""
        result = LintEngine(get_rules(["R100", "R101", "R102", "R103"])).run(
            [str(REPO / "src")]
        )
        assert result.findings == [], messages(result)
