"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main, resolve_feeder


class TestResolveFeeder:
    def test_builtin(self):
        net = resolve_feeder("ieee13")
        assert net.name == "ieee13"

    def test_json_file(self, ieee13_net, tmp_path):
        from repro.io import save_network

        path = tmp_path / "net.json"
        save_network(ieee13_net, path)
        assert resolve_feeder(str(path)).n_buses == ieee13_net.n_buses

    def test_csv_directory(self, ieee13_net, tmp_path):
        from repro.io.csv_feeder import save_network_csv

        save_network_csv(ieee13_net, tmp_path / "f")
        assert resolve_feeder(str(tmp_path / "f")).n_buses == ieee13_net.n_buses

    def test_unknown_raises_systemexit(self):
        with pytest.raises(SystemExit, match="unknown feeder"):
            resolve_feeder("nope")


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--feeder", "ieee13"]) == 0
        out = capsys.readouterr().out
        assert "S = 21" in out
        assert "250 x 253" in out

    @pytest.mark.parametrize("feeder, dof", [("ieee13", 0), ("ieee13-der", 21)])
    def test_info_prints_degrees_of_freedom(self, capsys, feeder, dof):
        assert main(["info", "--feeder", feeder]) == 0
        assert f"degrees of freedom {dof} " in capsys.readouterr().out

    def test_info_prints_the_local_kernel_layout(self, capsys, ieee13_dec):
        from repro.core.batch import BatchedLocalSolver

        assert main(["info", "--feeder", "ieee13"]) == 0
        [line] = [x for x in capsys.readouterr().out.splitlines()
                  if x.startswith("local kernel:")]
        solver = BatchedLocalSolver.from_decomposition(ieee13_dec)
        buckets = " ".join(f"{b.width}x{b.comp_indices.size}" for b in solver.buckets)
        assert line.startswith(
            f"local kernel: {len(solver.buckets)} buckets {buckets}, "
            f"{solver.padded_elements:,} padded elements"
        )

    def test_solve_converges(self, capsys, tmp_path):
        out_file = tmp_path / "res.json"
        code = main(
            [
                "solve",
                "--feeder",
                "ieee13",
                "--max-iter",
                "20000",
                "--output",
                str(out_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "converged" in out
        data = json.loads(out_file.read_text())
        assert data["converged"] is True

    def test_solve_nonconverged_exit_code(self, capsys):
        assert main(["solve", "--feeder", "ieee13", "--max-iter", "5"]) == 2
        assert capsys.readouterr().out.startswith("method: linearized ")

    def test_solve_qp_method(self, capsys):
        code = main(["solve", "--feeder", "ieee13", "--method", "qp", "--max-iter", "5"])
        assert code == 2  # budget too small to converge, but runs
        assert capsys.readouterr().out.startswith("method: qp ")

    @pytest.mark.parametrize(
        "flag", [["--algorithm", "benchmark"], ["--local-mode", "interior_point"]]
    )
    def test_removed_solve_flags_are_usage_errors(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--feeder", "ieee13", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method, rung", [("qp", "benchmark ADMM"), ("socp", "conic ADMM")]
    )
    def test_plain_admm_rung_rejects_relaxation(self, capsys, method, rung):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--feeder", "ieee13", "--method", method,
                  "--relaxation", "1.5"])
        message = str(exc.value.code)
        assert "\n" not in message
        assert rung in message and "runs plain ADMM only" in message
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("method", ["linearized", "qp", "socp"])
    def test_every_flag_on_every_rung(self, capsys, tmp_path, method):
        """--diagnostics, --trace and --output mean the same on each rung,
        and the answer is the facade's, bit for bit."""
        from repro.core import ADMMConfig
        from repro.methods import solve_with_method
        from repro.telemetry import load_trace_events

        trace, out = tmp_path / "t.json", tmp_path / "o.json"
        assert main(["solve", "--feeder", "ieee13", "--method", method, "--max-iter", "40",
                     "--diagnostics", "--trace", str(trace), "--output", str(out)]) == 2
        assert "convergence diagnostics" in capsys.readouterr().out
        names = {e.name for e in load_trace_events(trace)}
        assert {"admm.solve", "admm.global", "admm.local", "admm.dual",
                "admm.residual"} <= names
        data = json.loads(out.read_text())
        _, facade = solve_with_method(
            resolve_feeder("ieee13"), method, ADMMConfig(max_iter=40)
        )
        for key in ("iterations", "objective", "pres", "dres", "primal_violation"):
            assert data[key] == getattr(facade, key), key
        assert set(data["timers"]) == {"global", "local", "dual", "residual"}

    def test_export_json_and_npz(self, capsys, tmp_path):
        assert main(["export", "--feeder", "ieee13", "--format", "json",
                     "--output", str(tmp_path / "n.json")]) == 0
        assert (tmp_path / "n.json").exists()
        assert main(["export", "--feeder", "ieee13", "--format", "npz",
                     "--output", str(tmp_path / "lp.npz")]) == 0
        assert (tmp_path / "lp.npz").exists()

    def test_bench_iteration(self, capsys):
        assert main(["bench-iteration", "--feeder", "ieee13",
                     "--iterations", "20", "--cpus", "4"]) == 0
        out = capsys.readouterr().out
        assert "modeled A100" in out

    def test_solve_require_convergence_exit_code(self, capsys):
        """--require-convergence escalates non-convergence from the soft
        exit code 2 to the hard error 3 with a diagnostic on stderr."""
        rc = main(["solve", "--feeder", "ieee13", "--max-iter", "5",
                   "--require-convergence"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "did not converge within 5 iterations" in err

    def test_serve_batch_require_convergence_exit_code(self, capsys, tmp_path):
        from repro.serve import OPFRequest, SolveOptions, save_requests_json

        scen = tmp_path / "scenarios.json"
        save_requests_json(
            [OPFRequest(
                request_id="tight", options=SolveOptions(max_iter=5, polish=False)
            )],
            scen,
        )
        rc = main(["serve-batch", "--scenarios", str(scen),
                   "--require-convergence"])
        assert rc == 3
        assert "1 of 1 scenarios did not converge" in capsys.readouterr().err

    def test_serve_fleet_report_has_one_worker_schema(self, capsys, tmp_path):
        """The report is written after the fleet closes, so each worker
        entry carries its BATCH totals and its engine snapshot."""
        out = tmp_path / "fleet.json"
        rc = main(["serve-fleet", "--workers", "2", "--sim", "--generate", "4",
                   "--seed", "0", "--no-warm-start", "--output", str(out)])
        assert rc == 0
        workers = json.loads(out.read_text())["fleet"]["workers"]
        assert sum(ws["worker.served"] for ws in workers.values()) == 4
        for ws in workers.values():
            assert ws["worker.alive"] is True
            assert "factorizations_computed" in ws
            assert {"worker.busy_cpu_s", "worker.busy_wall_s"} <= set(ws)

    def test_require_convergence_quiet_when_converged(self, capsys):
        rc = main(["solve", "--feeder", "ieee13", "--max-iter", "20000",
                   "--require-convergence"])
        assert rc == 0
        assert capsys.readouterr().err == ""

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestTracing:
    def test_solve_trace_and_summary(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["solve", "--feeder", "ieee13", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "spans) written to" in out
        assert trace.exists()

        from repro.telemetry import load_trace_events

        names = {e.name for e in load_trace_events(trace)}
        assert {"admm.solve", "admm.global", "admm.local", "admm.dual"} <= names

        assert main(["trace-summary", str(trace)]) == 0
        table = capsys.readouterr().out
        assert "admm.local" in table and "share %" in table

    def test_solve_stochastic_traces_every_iteration(self, tmp_path, capsys):
        from repro.telemetry import load_trace_events

        trace, out = tmp_path / "t.json", tmp_path / "o.json"
        assert main(["solve-stochastic", "--scenarios", "2", "--objective", "both",
                     "--max-iter", "30", "--trace", str(trace),
                     "--output", str(out)]) == 2
        solutions = json.loads(out.read_text())["solutions"]
        names = [e.name for e in load_trace_events(trace)]
        assert names.count("stochastic.solve") == names.count("admm.solve") == 2
        assert names.count("admm.local") == sum(
            s["iterations"] for s in solutions.values()
        ) == 60
        for sol in solutions.values():
            assert np.isfinite(sol["primal_violation"])

    def test_serve_batch_trace_covers_all_layers(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main([
            "serve-batch", "--feeder", "ieee13", "--generate", "6",
            "--seed", "0", "--max-batch", "3", "--trace", str(trace),
        ]) == 0
        capsys.readouterr()

        from repro.telemetry import TRACK_GPU, load_trace_events

        events = load_trace_events(trace)
        names = {e.name for e in events}
        # Engine layer, ADMM loop layer, and kernel-sim layer all present.
        assert {"serve.batch", "serve.solve", "serve.warm_lookup"} <= names
        assert {"admm.global", "admm.local", "admm.dual", "admm.residual"} <= names
        assert any(n.startswith("gpu.kernel.") for n in names)
        assert any(e.track == TRACK_GPU for e in events)

    def test_trace_summary_empty_trace_fails(self, tmp_path, capsys):
        trace = tmp_path / "empty.json"
        trace.write_text('{"traceEvents": []}')
        assert main(["trace-summary", str(trace)]) == 2
        assert "no spans" in capsys.readouterr().out.lower()

    def test_trace_summary_tagged_with_backend(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["solve", "--feeder", "ieee13", "--backend", "numpy32",
                     "--precision", "fp32", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace-summary", str(trace)]) == 0
        title = capsys.readouterr().out.splitlines()[0]
        assert "backend=numpy32" in title and "precision=fp32" in title


class TestBackendFlags:
    def test_backends_listing(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "numpy64 *" in out  # default marker
        assert "numpy32" in out and "cupy" in out
        assert "REPRO_BACKEND" in out

    def test_backends_listing_honours_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy32")
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "numpy32 *" in out
        assert "REPRO_BACKEND=numpy32" in out

    def test_solve_with_backend_flags(self, capsys):
        rc = main(["solve", "--feeder", "ieee13",
                   "--backend", "numpy32", "--precision", "fp32"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "backend: numpy32 (precision fp32, compute float32)" in out
        assert "converged" in out

    def test_solve_unavailable_backend_is_clean_error(self, capsys):
        import repro.backend as rb

        if "cupy" in rb.available_backends():  # pragma: no cover - hardware
            pytest.skip("cupy present on this machine")
        with pytest.raises(SystemExit, match="not available"):
            main(["solve", "--feeder", "ieee13", "--backend", "cupy"])

    def test_solve_rejects_unknown_precision(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--precision", "fp16"])

    def test_serve_batch_with_backend_flags(self, capsys):
        rc = main(["serve-batch", "--feeder", "ieee13", "--generate", "4",
                   "--max-batch", "2", "--backend", "numpy32"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "backend: numpy32 (precision mixed, compute float32)" in out
