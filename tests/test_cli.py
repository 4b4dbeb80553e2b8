"""Tests for the command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_energy_defaults(self):
        args = build_parser().parse_args(["energy"])
        assert args.molecule == "h2"
        assert args.method == "vqe"

    @pytest.mark.parametrize("argv", [["calibrate"],
                                      ["energy", "--tune", "auto"],
                                      ["bench"],
                                      ["energy", "--level3-workers", "2"],
                                      ["energy", "--method", "vqe",
                                       "--simulator", "mps",
                                       "--measurement", "sweep"]])
    def test_retired_surface_is_an_argparse_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestEnergyCommand:
    def test_hf(self, capsys):
        assert main(["energy", "--molecule", "h2", "--method", "hf"]) == 0
        out = capsys.readouterr().out
        assert "E(RHF)" in out
        assert "-1.1166" in out

    def test_fci(self, capsys):
        assert main(["energy", "--molecule", "h2", "--method", "fci"]) == 0
        assert "-1.1372" in capsys.readouterr().out

    def test_vqe_fast(self, capsys):
        assert main(["energy", "--molecule", "h2", "--method", "vqe",
                     "--simulator", "fast"]) == 0
        assert "-1.1372" in capsys.readouterr().out

    def test_vqe_adjoint_grad(self, capsys):
        """--grad adjoint names a source for the default optimizer; it no
        longer switches the optimizer to adam."""
        assert main(["energy", "--molecule", "h2", "--method", "vqe",
                     "--simulator", "mps", "--grad", "adjoint",
                     "--max-iterations", "120"]) == 0
        out = capsys.readouterr().out
        assert "-1.137" in out
        assert out.rstrip().endswith(", l-bfgs-b)")

    def test_vqe_default_runs_on_adjoint_gradients(self, capsys):
        """No --optimizer, no --grad: l-bfgs-b on the statevector's
        adjoint (the CI smoke checks the same line)."""
        assert main(["energy", "--molecule", "h2", "--method", "vqe",
                     "--simulator", "statevector"]) == 0
        out = capsys.readouterr().out
        assert "-1.1372" in out
        gradients = int(out.split(" gradients, ")[0].rsplit(" ", 1)[1])
        assert gradients > 0
        assert out.rstrip().endswith(", l-bfgs-b)")

    def test_grad_rejects_gradient_free_optimizer(self, capsys):
        assert main(["energy", "--molecule", "h2", "--method", "vqe",
                     "--simulator", "mps", "--grad", "adjoint",
                     "--optimizer", "cobyla"]) == 1
        assert "gradient-free" in capsys.readouterr().err

    def test_workers_without_a_dmet_method_is_an_error(self, capsys):
        """Never a silent serial run: fragments are what workers solve."""
        assert main(["energy", "--molecule", "h2", "--method", "vqe",
                     "--workers", "2"]) == 1
        assert "apply to the DMET methods" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--workers", "-3"], "n_workers must be at least 1"),
        (["--workers", "0"], "n_workers must be at least 1"),
    ])
    def test_bad_workers_or_executor_is_an_error(self, flags, message,
                                                 capsys):
        """Never a silent serial run, dispatch or no dispatch."""
        assert main(["energy", "--molecule", "h2", "--method", "dmet-fci",
                     *flags]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["process", "thread"])
    def test_executor_flag_is_gone(self, name, capsys):
        """--workers alone picks in-line (1) or worker processes (> 1)."""
        with pytest.raises(SystemExit) as exc:
            main(["energy", "--molecule", "h2", "--method", "dmet-fci",
                  "--workers", "2", "--executor", name])
        assert exc.value.code == 2
        assert "unrecognized arguments: --executor" in capsys.readouterr().err

    def test_dmet_on_ring(self, capsys):
        assert main(["energy", "--molecule", "ring:6", "--method",
                     "dmet-fci", "--equivalent"]) == 0
        out = capsys.readouterr().out
        assert "E(DMET)" in out
        assert "8 qubits" in out

    @staticmethod
    def _record_solver(monkeypatch):
        """Let the real solver factory run, keeping what it was given."""
        import repro.q2chem as q2chem

        seen = []
        real = q2chem.make_fragment_solver

        def factory(name, **options):
            solver = real(name, **options)
            seen.append((name, solver))
            return solver

        monkeypatch.setattr(q2chem, "make_fragment_solver", factory)
        return seen

    def test_dmet_vqe_bond_dimension_reaches_the_solver(self, monkeypatch,
                                                        capsys):
        seen = self._record_solver(monkeypatch)
        assert main(["energy", "--molecule", "h2", "--method", "dmet-vqe",
                     "--simulator", "mps", "--bond-dimension", "2"]) == 0
        (name, solver), = seen
        assert name == "vqe-mps"
        assert solver.max_bond_dimension == 2
        assert "E(DMET)" in capsys.readouterr().out

    def test_dmet_vqe_optimizer_reaches_the_solver(self, monkeypatch,
                                                   capsys):
        seen = self._record_solver(monkeypatch)
        assert main(["energy", "--molecule", "h2", "--method", "dmet-vqe",
                     "--simulator", "mps", "--optimizer", "slsqp"]) == 0
        (_, solver), = seen
        assert solver.optimizer == "slsqp"
        assert solver.grad == "adjoint"
        assert "-1.1372" in capsys.readouterr().out

    def test_dmet_vqe_max_iterations_reaches_the_solver(self, monkeypatch,
                                                        capsys):
        seen = self._record_solver(monkeypatch)
        assert main(["energy", "--molecule", "h2", "--method", "dmet-vqe",
                     "--simulator", "mps", "--optimizer", "slsqp",
                     "--max-iterations", "2"]) == 0
        (_, solver), = seen
        assert solver.max_iterations == 2
        assert "E(DMET)" in capsys.readouterr().out

    def test_dmet_rejects_grad(self, capsys):
        """The fragment solver resolves its own source; never ignored."""
        assert main(["energy", "--molecule", "h2", "--method", "dmet-vqe",
                     "--simulator", "mps", "--grad", "adjoint"]) == 1
        assert "--grad applies to --method vqe" in capsys.readouterr().err

    def test_vqe_line_reports_gradient_evaluations(self, capsys):
        assert main(["energy", "--molecule", "h2", "--method", "vqe",
                     "--simulator", "mps", "--grad", "adjoint",
                     "--optimizer", "slsqp"]) == 0
        # 5 energies + 4 adjoint gradients converge; the saddle-escape
        # restart from the kicked optimum takes 6 + 4 more and is
        # rejected (its energy is not lower), both runs counted
        assert "11 evaluations, 8 gradients, slsqp" in capsys.readouterr().out

    def test_bond_override(self, capsys):
        main(["energy", "--molecule", "h2", "--method", "hf",
              "--bond", "2.0"])
        out1 = capsys.readouterr().out
        main(["energy", "--molecule", "h2", "--method", "hf"])
        out2 = capsys.readouterr().out
        assert out1 != out2

    def test_unknown_molecule(self, capsys):
        assert main(["energy", "--molecule", "plutonium"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_ring_count(self, capsys):
        assert main(["energy", "--molecule", "ring:x", "--method", "hf"]) == 1
        assert "unknown molecule spec" in capsys.readouterr().err

    def test_unknown_method(self, capsys):
        assert main(["energy", "--method", "dft"]) == 1

    @pytest.mark.parametrize("args", [
        ["--molecule", "ring:3"], ["--molecule", "chain:5"],
        ["--molecule", "h2", "--bond", "0"],
        ["--molecule", "h2", "--bond", "-0.7"],
        ["--molecule", "h2o", "--bond", "1.0"]])
    def test_spec_errors_exit_1_before_rhf(self, args, capsys, monkeypatch):
        from repro.chem.scf import RHF

        def _no_rhf(*_, **__):
            raise AssertionError("RHF ran on a spec that must not pass")
        monkeypatch.setattr(RHF, "__init__", _no_rhf)
        assert main(["energy", *args, "--method", "hf"]) == 1
        err = capsys.readouterr().err
        assert "electrons" in err or "bond" in err

    def test_xyz_input(self, tmp_path, capsys):
        xyz = tmp_path / "geom.xyz"
        xyz.write_text("2\nh2\nH 0 0 0\nH 0 0 0.7414\n")
        assert main(["energy", "--xyz", str(xyz), "--method", "hf"]) == 0
        assert "-1.1166" in capsys.readouterr().out


class TestMetricsOut:
    """--metrics-out writes a valid repro.obs/2 document (smoke test)."""

    def test_vqe_metrics_document(self, tmp_path, capsys):
        import json

        from repro import obs
        from repro.obs import validate_document

        path = tmp_path / "metrics.json"
        assert main(["energy", "--molecule", "h2", "--method", "vqe",
                     "--simulator", "mps", "--metrics-out", str(path)]) == 0
        assert str(path) in capsys.readouterr().out
        doc = json.loads(path.read_text())
        validate_document(doc)  # raises on schema violations
        assert doc["schema"] == "repro.obs/2"
        assert doc["metrics"]["vqe.runs"]["values"] == [
            {"labels": {}, "value": 1}]
        assert "mps.svd" in doc["metrics"]
        assert "spans" not in doc  # tracing was not requested
        assert not obs.enabled()  # the flag scope ended with the command

    def test_trace_adds_spans(self, tmp_path, capsys):
        import json

        from repro.obs import validate_document

        path = tmp_path / "metrics.json"
        assert main(["energy", "--molecule", "h2", "--method", "vqe",
                     "--simulator", "statevector", "--metrics-out", str(path),
                     "--trace"]) == 0
        doc = json.loads(path.read_text())
        validate_document(doc)
        names = {span["name"] for span in doc["spans"]}
        assert "vqe.run" in names

    def test_metrics_written_even_on_failure(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(["energy", "--method", "dft",
                     "--metrics-out", str(path)]) == 1
        assert path.exists()


class TestInfoCommand:
    def test_h2_inventory(self, capsys):
        assert main(["info", "--molecule", "h2"]) == 0
        out = capsys.readouterr().out
        assert "qubits          : 4" in out
        assert "Pauli strings   : 15" in out
        assert ("3 excitation gates = 12 Pauli rotations = 158 gates "
                "(64 two-qubit)") in out

    def test_frozen_core(self, capsys):
        assert main(["info", "--molecule", "lih", "--frozen-core", "1"]) == 0
        out = capsys.readouterr().out
        assert "qubits          : 10" in out


class TestScalingCommand:
    def test_strong(self, capsys):
        assert main(["scaling", "--mode", "strong"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 12" in out or "strong scaling" in out
        assert "21,299,200" in out

    def test_weak(self, capsys):
        assert main(["scaling", "--mode", "weak"]) == 0
        assert "weak scaling" in capsys.readouterr().out


class TestServeCommand:
    REQUESTS = [
        {"kind": "energy", "molecule": "h2", "method": "hf"},
        {"kind": "energy", "molecule": "h2", "method": "fci"},
        {"kind": "energy", "molecule": "h2", "method": "hf", "tag": "dup"},
        {"kind": "vqe", "molecule": "h2", "simulator": "statevector"},
    ]

    def _request_file(self, tmp_path, entries=None):
        import json

        path = tmp_path / "requests.json"
        path.write_text(json.dumps(entries or self.REQUESTS))
        return str(path)

    def test_submit_status_result_lines(self, tmp_path, capsys):
        assert main(["serve", "--requests",
                     self._request_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "submitted job-0001" in out
        assert "submitted job-0004" in out
        assert out.count(" done ") == 4
        assert "E = -1.11668439 Ha" in out      # served HF energy
        assert "[cache hit]" in out             # the duplicated request
        assert "4 done, 0 failed, 1 served from result cache" in out
        assert "throughput:" in out

    def test_metrics_out_writes_valid_obs2_per_request(self, tmp_path,
                                                       capsys):
        import json

        from repro.obs.export import validate_document

        metrics_dir = tmp_path / "metrics"
        assert main(["serve", "--requests", self._request_file(tmp_path),
                     "--metrics-out", str(metrics_dir)]) == 0
        assert "per-request metrics written" in capsys.readouterr().out
        files = sorted(metrics_dir.glob("job-*.json"))
        assert [f.name for f in files] == [
            f"job-{i:04d}.json" for i in range(1, 5)]
        for f in files:
            doc = json.loads(f.read_text())
            validate_document(doc)
            assert doc["schema"] == "repro.obs/2"
            jobs = doc["metrics"]["serve.jobs"]["values"]
            assert sum(slot["value"] for slot in jobs) == 1

    def test_results_out_document(self, tmp_path, capsys):
        import json

        results = tmp_path / "results.json"
        assert main(["serve", "--requests", self._request_file(tmp_path),
                     "--results-out", str(results)]) == 0
        doc = json.loads(results.read_text())
        assert len(doc["jobs"]) == 4
        assert doc["jobs"][2]["cache_hit"] is True
        assert doc["jobs"][2]["tag"] == "dup"
        assert doc["stats"]["jobs"]["done"] == 4
        assert doc["stats"]["cache"]["hit_rate"] > 0

    def test_failed_job_sets_exit_code(self, tmp_path, capsys):
        entries = [{"kind": "energy", "molecule": "h2", "method": "hf"},
                   # constructs, then COBYLA's budget fails at run time
                   {"kind": "vqe", "molecule": "h2", "optimizer": "cobyla",
                    "max_iterations": 2}]
        assert main(["serve", "--requests",
                     self._request_file(tmp_path, entries)]) == 1
        out = capsys.readouterr().out
        assert "1 done, 1 failed" in out or "1 failed" in out
        assert "error" in out

    def test_bad_request_file_is_a_cli_error(self, tmp_path, capsys):
        import json

        path = tmp_path / "empty.json"
        path.write_text(json.dumps([]))
        assert main(["serve", "--requests", str(path)]) == 1
        assert "non-empty" in capsys.readouterr().err

    def test_unknown_spec_field_is_a_cli_error(self, tmp_path, capsys):
        entries = [{"kind": "energy", "molcule": "h2"}]
        assert main(["serve", "--requests",
                     self._request_file(tmp_path, entries)]) == 1
        assert "unknown job spec" in capsys.readouterr().err


class TestTraceOut:
    def test_energy_writes_chrome_trace(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        assert main(["energy", "--molecule", "h2", "--method", "vqe",
                     "--max-iterations", "8",
                     "--trace-out", str(trace)]) == 0
        assert "chrome trace written" in capsys.readouterr().out
        doc = json.loads(trace.read_text())
        assert doc["otherData"]["generator"] == "repro.obs.timeline"
        complete = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        assert any(ev["name"].startswith("vqe.") for ev in complete)
        meta = [ev for ev in doc["traceEvents"] if ev["ph"] == "M"]
        assert any(ev["args"]["name"] == "parent" for ev in meta)

    def test_trace_out_implies_tracing(self, tmp_path, capsys):
        # no --trace flag: spans must still be recorded for the export
        trace = tmp_path / "t.json"
        assert main(["energy", "--molecule", "h2", "--method", "vqe",
                     "--max-iterations", "8",
                     "--trace-out", str(trace)]) == 0
        import json

        assert json.loads(trace.read_text())["traceEvents"]


class TestServeTelemetry:
    REQUESTS = [
        {"kind": "energy", "molecule": "h2", "method": "hf"},
        {"kind": "energy", "molecule": "h2", "method": "fci"},
    ]

    def _request_file(self, tmp_path):
        import json

        path = tmp_path / "requests.json"
        path.write_text(json.dumps(self.REQUESTS))
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["status", "--status-file", "s.json"],
        ["serve", "--requests", "r.json", "--telemetry-out", "t.jsonl"],
        ["serve", "--requests", "r.json", "--status-file", "s.json"],
        ["serve", "--requests", "r.json", "--telemetry-interval", "0.5"],
    ])
    def test_the_sampler_surface_is_an_argparse_error(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        capsys.readouterr()

    def test_serve_trace_writes_per_job_chrome_traces(self, tmp_path,
                                                      capsys):
        import json

        metrics_dir = tmp_path / "metrics"
        assert main(["serve", "--requests", self._request_file(tmp_path),
                     "--metrics-out", str(metrics_dir), "--trace"]) == 0
        traces = sorted(metrics_dir.glob("job-*.trace.json"))
        assert len(traces) == 2
        doc = json.loads(traces[0].read_text())
        names = [ev["name"] for ev in doc["traceEvents"]
                 if ev["ph"] == "X"]
        assert "serve.job" in names

    def test_failed_job_summary_carries_flight_dump(self, tmp_path,
                                                    capsys):
        import json

        from repro.obs.flight import validate_flight

        entries = tmp_path / "reqs.json"
        entries.write_text(json.dumps(
            [{"kind": "vqe", "molecule": "h2", "optimizer": "cobyla",
              "max_iterations": 2}]))
        results = tmp_path / "results.json"
        assert main(["serve", "--requests", str(entries),
                     "--results-out", str(results)]) == 1
        (job,) = json.loads(results.read_text())["jobs"]
        assert job["status"] == "error"
        validate_flight(job["flight"])
        kinds = {(ev["kind"], ev["name"]) for ev in job["flight"]["events"]}
        assert ("serve", "job_error") in kinds
