"""Tests for the AST-based invariant linter (repro.lint)."""

import json

import pytest

from repro.cli import main
from repro.lint import (
    LintEngine,
    all_rules,
    format_github,
    format_json,
    format_stats,
    format_text,
    get_rules,
    scope_path,
)


def lint_source(source: str, relpath: str, tmp_path, rules=None):
    """Write ``source`` at ``relpath`` under ``tmp_path`` and lint it."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    engine = LintEngine(get_rules(rules) if rules else None)
    findings, _ = engine.lint_file(path)
    return findings


def rule_ids(findings):
    return sorted({f.rule for f in findings})


class TestRegistry:
    def test_all_rules_registered(self):
        assert [r.id for r in all_rules()] == [
            "R001", "R002", "R003", "R004", "R005",
            "R100", "R101", "R102", "R103",
        ]

    def test_selection(self):
        assert [r.id for r in get_rules(["R001", "r003"])] == ["R001", "R003"]

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError, match="R999"):
            get_rules(["R999"])

    def test_empty_selection_raises(self):
        with pytest.raises(KeyError, match="empty"):
            get_rules([" "])

    def test_describe_has_rationale(self):
        for rule in all_rules():
            card = rule.describe()
            assert card["id"] and card["severity"] in ("error", "warning")
            assert card["rationale"]


class TestScopePath:
    def test_repro_relative(self, tmp_path):
        p = tmp_path / "src" / "repro" / "core" / "loop.py"
        assert scope_path(p) == "core/loop.py"

    def test_fixture_tree_falls_back_to_posix(self, tmp_path):
        p = tmp_path / "core" / "mod.py"
        assert scope_path(p).endswith("core/mod.py")


class TestBackendDiscipline:
    def test_raw_norm_in_core_flagged(self, tmp_path):
        src = "import numpy as np\n\ndef f(v):\n    return np.linalg.norm(v)\n"
        findings = lint_source(src, "src/repro/core/mod.py", tmp_path)
        assert rule_ids(findings) == ["R001"]
        assert "Backend.norm" in findings[0].message

    def test_alias_resolution(self, tmp_path):
        src = "from numpy.linalg import norm as nrm\n\ndef f(v):\n    return nrm(v)\n"
        findings = lint_source(src, "src/repro/core/mod.py", tmp_path)
        assert rule_ids(findings) == ["R001"]

    def test_backend_call_not_flagged(self, tmp_path):
        src = "def f(backend, v):\n    return backend.norm(v)\n"
        assert lint_source(src, "src/repro/core/mod.py", tmp_path) == []

    def test_structural_numpy_allowed(self, tmp_path):
        src = (
            "import numpy as np\n\n"
            "def f(v):\n"
            "    return np.concatenate([np.asarray(v), np.arange(3)])\n"
        )
        assert lint_source(src, "src/repro/core/mod.py", tmp_path) == []

    def test_out_of_scope_module_not_flagged(self, tmp_path):
        src = "import numpy as np\n\ndef f(v):\n    return np.linalg.norm(v)\n"
        assert lint_source(src, "src/repro/network/mod.py", tmp_path) == []

    def test_line_suppression(self, tmp_path):
        src = (
            "import numpy as np\n\n"
            "def f(v):\n"
            "    return np.linalg.norm(v)  # repro-lint: disable=R001\n"
        )
        assert lint_source(src, "src/repro/core/mod.py", tmp_path) == []

    def test_unused_suppression_reported(self, tmp_path):
        src = "x = 1  # repro-lint: disable=R001\n"
        findings = lint_source(src, "src/repro/core/mod.py", tmp_path)
        assert rule_ids(findings) == ["R000"]
        assert "unused suppression" in findings[0].message

    def test_file_suppression(self, tmp_path):
        src = (
            "# repro-lint: disable-file=R001\n"
            "import numpy as np\n\n"
            "def f(v):\n"
            "    return np.linalg.norm(v) + np.sum(v)\n"
        )
        assert lint_source(src, "src/repro/core/mod.py", tmp_path) == []

    def test_pragma_in_docstring_is_not_a_suppression(self, tmp_path):
        src = (
            '"""Docs mention # repro-lint: disable=R001 syntax."""\n'
            "import numpy as np\n\n"
            "def f(v):\n"
            "    return np.linalg.norm(v)\n"
        )
        findings = lint_source(src, "src/repro/core/mod.py", tmp_path)
        assert rule_ids(findings) == ["R001"]


class TestDeterminism:
    def test_wall_clock_flagged(self, tmp_path):
        src = "import time\n\ndef f():\n    return time.time()\n"
        findings = lint_source(src, "src/repro/resilience/mod.py", tmp_path)
        assert rule_ids(findings) == ["R002"]

    def test_perf_counter_allowed(self, tmp_path):
        src = "import time\n\ndef f():\n    return time.perf_counter()\n"
        assert lint_source(src, "src/repro/resilience/mod.py", tmp_path) == []

    def test_global_numpy_rng_flagged(self, tmp_path):
        src = "import numpy as np\n\ndef f():\n    return np.random.rand(3)\n"
        findings = lint_source(src, "src/repro/parallel/mod.py", tmp_path)
        assert rule_ids(findings) == ["R002"]

    def test_unseeded_default_rng_flagged(self, tmp_path):
        src = "import numpy as np\n\nrng = np.random.default_rng()\n"
        findings = lint_source(src, "src/repro/core/mod.py", tmp_path)
        assert rule_ids(findings) == ["R002"]
        assert "unseeded" in findings[0].message

    def test_seeded_default_rng_allowed(self, tmp_path):
        src = "import numpy as np\n\nrng = np.random.default_rng(7)\n"
        assert lint_source(src, "src/repro/core/mod.py", tmp_path) == []

    def test_datetime_now_flagged(self, tmp_path):
        src = "import datetime\n\ndef f():\n    return datetime.datetime.now()\n"
        findings = lint_source(src, "src/repro/gpu/mod.py", tmp_path)
        assert rule_ids(findings) == ["R002"]

    def test_out_of_scope_wall_clock_allowed(self, tmp_path):
        src = "import time\n\ndef f():\n    return time.time()\n"
        assert lint_source(src, "src/repro/io/mod.py", tmp_path) == []


class TestPrecisionDiscipline:
    def test_dtype_float_literal_flagged(self, tmp_path):
        src = "import numpy as np\n\nx = np.zeros(3, dtype=float)\n"
        findings = lint_source(src, "src/repro/network/mod.py", tmp_path)
        assert rule_ids(findings) == ["R003"]
        assert findings[0].severity == "warning"

    def test_astype_np_float32_flagged(self, tmp_path):
        src = "import numpy as np\n\ndef f(x):\n    return x.astype(np.float32)\n"
        findings = lint_source(src, "src/repro/serve/mod.py", tmp_path)
        assert rule_ids(findings) == ["R003"]

    def test_string_dtype_flagged(self, tmp_path):
        src = "import numpy as np\n\nx = np.zeros(3, dtype=\"float32\")\n"
        findings = lint_source(src, "src/repro/network/mod.py", tmp_path)
        assert rule_ids(findings) == ["R003"]

    def test_int_dtype_allowed(self, tmp_path):
        src = "import numpy as np\n\nx = np.zeros(3, dtype=np.int64)\n"
        assert lint_source(src, "src/repro/network/mod.py", tmp_path) == []

    def test_variable_dtype_allowed(self, tmp_path):
        src = "def f(x, backend):\n    return x.astype(backend.compute_dtype)\n"
        assert lint_source(src, "src/repro/serve/mod.py", tmp_path) == []

    def test_backend_package_excluded(self, tmp_path):
        src = "import numpy as np\n\nx = np.zeros(3, dtype=np.float32)\n"
        assert lint_source(src, "src/repro/backend/mod.py", tmp_path) == []

    def test_qp_package_excluded(self, tmp_path):
        src = "import numpy as np\n\ndef f(x):\n    return x.astype(np.float64)\n"
        assert lint_source(src, "src/repro/qp/mod.py", tmp_path) == []


class TestTelemetryHygiene:
    def test_span_outside_with_flagged(self, tmp_path):
        src = (
            "def f(tracer):\n"
            "    span = tracer.span(\"admm.solve\")\n"
            "    span.__enter__()\n"
        )
        findings = lint_source(src, "src/repro/core/mod.py", tmp_path)
        assert rule_ids(findings) == ["R004"]

    def test_with_span_allowed(self, tmp_path):
        src = "def f(tracer):\n    with tracer.span(\"admm.solve\"):\n        pass\n"
        assert lint_source(src, "src/repro/core/mod.py", tmp_path) == []

    def test_conditional_with_span_allowed(self, tmp_path):
        src = (
            "import contextlib\n\n"
            "def f(tracer, on):\n"
            "    with tracer.span(\"admm.solve\") if on else contextlib.nullcontext():\n"
            "        pass\n"
        )
        assert lint_source(src, "src/repro/core/mod.py", tmp_path) == []

    def test_bad_metric_name_flagged(self, tmp_path):
        src = "def f(reg):\n    reg.counter(\"Serve.Latency\").inc()\n"
        findings = lint_source(src, "src/repro/serve/mod.py", tmp_path)
        assert rule_ids(findings) == ["R004"]

    def test_undotted_metric_name_flagged(self, tmp_path):
        src = "def f(reg):\n    reg.counter(\"latency\").inc()\n"
        findings = lint_source(src, "src/repro/serve/mod.py", tmp_path)
        assert rule_ids(findings) == ["R004"]

    def test_unregistered_namespace_flagged(self, tmp_path):
        src = "def f(reg):\n    reg.counter(\"mystery.count\").inc()\n"
        findings = lint_source(src, "src/repro/serve/mod.py", tmp_path)
        assert rule_ids(findings) == ["R004"]
        assert "namespace" in findings[0].message

    def test_good_metric_name_allowed(self, tmp_path):
        src = "def f(reg):\n    reg.histogram(\"serve.latency_s\").observe(1.0)\n"
        assert lint_source(src, "src/repro/serve/mod.py", tmp_path) == []

    def test_stochastic_namespace_registered(self, tmp_path):
        src = "def f(reg):\n    reg.counter(\"stochastic.scenarios\").inc()\n"
        assert lint_source(src, "src/repro/serve/mod.py", tmp_path) == []

    def test_stochastic_lookalike_namespace_flagged(self, tmp_path):
        src = "def f(reg):\n    reg.counter(\"stochastics.scenarios\").inc()\n"
        findings = lint_source(src, "src/repro/serve/mod.py", tmp_path)
        assert rule_ids(findings) == ["R004"]
        assert "namespace" in findings[0].message

    def test_dynamic_metric_name_skipped(self, tmp_path):
        src = "def f(reg, name):\n    reg.counter(f\"serve.{name}\").inc()\n"
        assert lint_source(src, "src/repro/serve/mod.py", tmp_path) == []

    def test_every_registered_metric_name_passes(self, tmp_path):
        from repro.telemetry.names import METRIC_NAMES

        src = "def f(reg):\n" + "".join(
            f"    reg.counter({name!r}).inc()\n" for name in sorted(METRIC_NAMES)
        )
        assert lint_source(src, "src/repro/serve/mod.py", tmp_path, ["R004"]) == []


class TestExceptionDiscipline:
    def test_bare_except_flagged(self, tmp_path):
        src = "try:\n    x = 1\nexcept:\n    x = 2\n"
        findings = lint_source(src, "src/repro/utils/mod.py", tmp_path)
        assert rule_ids(findings) == ["R005"]

    def test_swallowed_broad_except_flagged(self, tmp_path):
        src = "try:\n    x = 1\nexcept Exception:\n    pass\n"
        findings = lint_source(src, "src/repro/utils/mod.py", tmp_path)
        assert rule_ids(findings) == ["R005"]

    def test_broad_except_with_body_allowed(self, tmp_path):
        src = (
            "try:\n"
            "    x = 1\n"
            "except Exception as exc:\n"
            "    print(exc)\n"
            "    raise\n"
        )
        assert lint_source(src, "src/repro/utils/mod.py", tmp_path) == []

    def test_specific_except_pass_allowed(self, tmp_path):
        src = "try:\n    x = 1\nexcept ValueError:\n    pass\n"
        assert lint_source(src, "src/repro/utils/mod.py", tmp_path) == []


class TestReports:
    def _result(self, tmp_path):
        (tmp_path / "core").mkdir(exist_ok=True)
        (tmp_path / "core" / "mod.py").write_text(
            "import numpy as np\n\ndef f(v):\n    return np.linalg.norm(v)\n"
        )
        return LintEngine().run([str(tmp_path)])

    def test_json_schema(self, tmp_path):
        doc = json.loads(format_json(self._result(tmp_path)))
        assert doc["schema_version"] == 2
        assert set(doc) == {"schema_version", "summary", "findings", "rules"}
        assert set(doc["summary"]) == {
            "files", "findings", "suppressed", "clean", "by_rule",
        }
        finding = doc["findings"][0]
        assert set(finding) == {
            "rule", "severity", "path", "line", "col", "message",
        }
        assert doc["summary"]["by_rule"] == {"R001": 1}
        assert {r["id"] for r in doc["rules"]} == {
            "R001", "R002", "R003", "R004", "R005",
            "R100", "R101", "R102", "R103",
        }

    def test_text_format(self, tmp_path):
        text = format_text(self._result(tmp_path))
        assert "core/mod.py:4:" in text
        assert "R001 [error]" in text
        assert "FAIL" in text

    def test_github_annotations(self, tmp_path):
        out = format_github(self._result(tmp_path))
        assert out.startswith("::error file=")
        assert ",line=4," in out and "::R001:" in out

    def test_stats_lists_all_rules(self, tmp_path):
        out = format_stats(self._result(tmp_path))
        for rid in (
            "R001", "R002", "R003", "R004", "R005",
            "R100", "R101", "R102", "R103",
        ):
            assert rid in out

    def test_stats_reports_graph_and_timings(self, tmp_path):
        out = format_stats(self._result(tmp_path))
        assert "project graph:" in out
        assert "timings:" in out and "graph_build" in out


class TestCLI:
    def _fixture(self, tmp_path, source):
        pkg = tmp_path / "core"
        pkg.mkdir(exist_ok=True)
        (pkg / "mod.py").write_text(source)
        return str(tmp_path)

    def test_exit_zero_when_clean(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        root = self._fixture(tmp_path, "x = 1\n")
        assert main(["lint", root]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        root = self._fixture(
            tmp_path, "import numpy as np\n\ndef f(v):\n    return np.linalg.norm(v)\n"
        )
        assert main(["lint", root]) == 1
        assert "R001" in capsys.readouterr().out

    def test_exit_two_on_unknown_rule(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        root = self._fixture(tmp_path, "x = 1\n")
        assert main(["lint", root, "--rules", "R999"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_exit_two_on_missing_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["lint", str(tmp_path / "nowhere")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_rule_selection(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        root = self._fixture(
            tmp_path, "import numpy as np\n\ndef f(v):\n    return np.linalg.norm(v)\n"
        )
        assert main(["lint", root, "--rules", "R002"]) == 0
        assert main(["lint", root, "--rules", "R001"]) == 1

    def test_json_format(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        root = self._fixture(tmp_path, "x = 1\n")
        assert main(["lint", root, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["clean"] is True

    def test_github_format(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        root = self._fixture(
            tmp_path, "try:\n    x = 1\nexcept:\n    pass\n"
        )
        assert main(["lint", root, "--format", "github"]) == 1
        assert "::error file=" in capsys.readouterr().out

    def test_stats_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        root = self._fixture(tmp_path, "x = 1\n")
        assert main(["lint", root, "--stats"]) == 0
        assert "per rule:" in capsys.readouterr().out

    def test_trace_reports_lint_status(self, tmp_path, monkeypatch, capsys):
        from repro.telemetry import load_trace_events, run_tags

        monkeypatch.chdir(tmp_path)
        root = self._fixture(tmp_path, "x = 1\n")
        trace = tmp_path / "trace.json"
        assert main(["lint", root, "--trace", str(trace)]) == 0
        events = load_trace_events(trace)
        assert [e.name for e in events] == ["lint.run"]
        assert run_tags(events) == {"lint_findings": "0"}


class TestRepoIsClean:
    """The repo's own source lints clean: all rules, nothing grandfathered."""

    def test_src_lints_clean(self, capsys):
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        code = main(["lint", str(repo / "src")])
        assert code == 0, capsys.readouterr().out
