"""Tests for bench regression attribution (repro.obs.attribution)."""

from __future__ import annotations

import copy

from repro.obs.attribution import (
    MISSING_SEVERITY,
    attribute_regression,
    format_attribution,
)
from repro.obs.bench import BENCH_SCHEMA


def _ledger() -> dict:
    cost = {
        "schema": "repro.cost/1",
        "phases": {
            "state_prep": {"flops": 1.0e6, "bytes": 4.0e5},
            "measurement_mps": {"flops": 2.0e6, "bytes": 8.0e5},
        },
        "totals": {"flops": 3.0e6, "bytes": 1.2e6},
        "achieved_gflops": 5.0,
    }
    return {
        "schema": BENCH_SCHEMA,
        "date": "2026-08-01",
        "quick": False,
        "calibration_s": 0.001,
        "cases": {
            "h2_sv_direct": {
                "energy": -1.1167,
                "wall_s": 0.010,
                "wall_rel": 10.0,
                "counters": {"pauli.expectations": 8,
                             "kernels.gemm_calls": 100},
                "cost": copy.deepcopy(cost),
            },
            "lih_mps_sweep": {
                "energy": -7.862,
                "wall_s": 0.200,
                "wall_rel": 200.0,
                "counters": {"mps.svd": 42},
                "cost": copy.deepcopy(cost),
            },
        },
    }


class TestRanking:
    def test_identical_ledgers_are_clean(self):
        base = _ledger()
        report = attribute_regression(copy.deepcopy(base), base)
        assert report["findings"] == []
        assert format_attribution(report) == ""

    def test_largest_relative_change_ranks_first(self):
        base = _ledger()
        cur = copy.deepcopy(base)
        case = cur["cases"]["h2_sv_direct"]
        case["counters"]["kernels.gemm_calls"] = 110      # +10%
        case["counters"]["pauli.expectations"] = 16        # +100%
        report = attribute_regression(cur, base)
        names = [f["name"] for f in report["findings"]]
        assert names.index("pauli.expectations") \
            < names.index("kernels.gemm_calls")

    def test_missing_quantity_outranks_any_finite_change(self):
        base = _ledger()
        cur = copy.deepcopy(base)
        case = cur["cases"]["h2_sv_direct"]
        del case["counters"]["kernels.gemm_calls"]
        case["counters"]["pauli.expectations"] = 80        # +900%
        report = attribute_regression(cur, base)
        top = report["findings"][0]
        assert top["name"] == "kernels.gemm_calls"
        assert top["severity"] == MISSING_SEVERITY
        assert top["current"] is None

    def test_deterministic_tie_break(self):
        base = _ledger()
        cur = copy.deepcopy(base)
        cur["cases"]["h2_sv_direct"]["counters"]["pauli.expectations"] = 16
        cur["cases"]["lih_mps_sweep"]["counters"]["mps.svd"] = 84
        r1 = attribute_regression(cur, base)
        r2 = attribute_regression(copy.deepcopy(cur), copy.deepcopy(base))
        assert r1["findings"] == r2["findings"]
        # equal severity (both +100%): case name breaks the tie
        assert [f["case"] for f in r1["findings"][:2]] \
            == ["h2_sv_direct", "lih_mps_sweep"]

    def test_cases_only_in_one_ledger_are_skipped(self):
        base = _ledger()
        cur = copy.deepcopy(base)
        del cur["cases"]["lih_mps_sweep"]
        cur["cases"]["brand_new"] = copy.deepcopy(
            base["cases"]["h2_sv_direct"])
        report = attribute_regression(cur, base)
        assert report["findings"] == []


class TestKinds:
    def test_phase_findings_name_the_moved_phase(self):
        base = _ledger()
        cur = copy.deepcopy(base)
        cur["cases"]["h2_sv_direct"]["cost"]["phases"][
            "measurement_mps"]["flops"] = 4.0e6
        report = attribute_regression(cur, base)
        phase = [f for f in report["findings"] if f["kind"] == "phase"]
        assert [f["name"] for f in phase] == ["measurement_mps.flops"]

    def test_roofline_distinguishes_kernel_from_workload(self):
        base = _ledger()
        cur = copy.deepcopy(base)
        cur["cases"]["h2_sv_direct"]["cost"]["achieved_gflops"] = 2.5
        report = attribute_regression(cur, base)
        (roof,) = [f for f in report["findings"] if f["kind"] == "roofline"]
        assert "kernel throughput moved" in roof["note"]
        # now also move the modeled work: the note flips
        cur["cases"]["h2_sv_direct"]["cost"]["totals"]["flops"] = 6.0e6
        report = attribute_regression(cur, base)
        (roof,) = [f for f in report["findings"] if f["kind"] == "roofline"]
        assert "modeled work moved too" in roof["note"]

    def test_wall_prefers_calibration_normalized(self):
        base = _ledger()
        cur = copy.deepcopy(base)
        cur["cases"]["h2_sv_direct"]["wall_rel"] = 15.0
        cur["cases"]["h2_sv_direct"]["wall_s"] = 0.010   # raw unchanged
        report = attribute_regression(cur, base)
        (wall,) = [f for f in report["findings"] if f["kind"] == "wall"]
        assert wall["name"] == "wall_rel"

    def test_energy_drift_is_a_finding(self):
        base = _ledger()
        cur = copy.deepcopy(base)
        cur["cases"]["h2_sv_direct"]["energy"] = -1.10
        report = attribute_regression(cur, base)
        assert any(f["kind"] == "energy" for f in report["findings"])


class TestFormat:
    def test_ranked_lines_name_base_and_current(self):
        base = _ledger()
        cur = copy.deepcopy(base)
        cur["cases"]["h2_sv_direct"]["counters"]["pauli.expectations"] = 16
        text = format_attribution(attribute_regression(cur, base))
        assert text.startswith("attribution (ranked by relative change):")
        assert "pauli.expectations" in text
        assert "8 -> 16" in text
        assert "+100.0%" in text

    def test_limit_suppresses_the_tail(self):
        base = _ledger()
        cur = copy.deepcopy(base)
        for i in range(6):
            base["cases"]["h2_sv_direct"]["counters"][f"c{i}"] = 1
            cur["cases"]["h2_sv_direct"]["counters"][f"c{i}"] = 2 + i
        text = format_attribution(attribute_regression(cur, base), limit=3)
        assert "further finding(s) suppressed" in text
        assert len([l for l in text.splitlines()
                    if l.lstrip()[:1].isdigit()]) == 3

    def test_missing_renders_as_appeared(self):
        base = _ledger()
        cur = copy.deepcopy(base)
        cur["cases"]["h2_sv_direct"]["counters"]["novel.counter"] = 5
        text = format_attribution(attribute_regression(cur, base))
        assert "appeared" in text
        assert "novel.counter" in text


class TestBenchGateIntegration:
    """A failed gate must print the ranked attribution (the acceptance
    criterion for a deliberately regressed run exiting 2)."""

    def test_run_cli_prints_attribution_on_exit_2(self, tmp_path,
                                                  monkeypatch, capsys):
        import argparse
        import json

        from repro.obs import bench

        base = _ledger()
        cur = copy.deepcopy(base)
        cur["cases"]["h2_sv_direct"]["counters"]["pauli.expectations"] = 16

        monkeypatch.chdir(tmp_path)
        (tmp_path / bench.BASELINE_NAME).write_text(json.dumps(base))
        monkeypatch.setattr(bench, "run_suite",
                            lambda quick=False, cases=None: cur)
        monkeypatch.setattr(bench, "mps_speedup", lambda doc: (None, False))
        monkeypatch.setattr(bench, "adjoint_eval_ratio", lambda doc: None)

        args = argparse.Namespace(
            quick=True, cases=None, out=str(tmp_path / "BENCH_cur.json"),
            baseline=None, wall_threshold=0.10, no_wall_check=True,
            write_baseline=False)
        code = bench.run_cli(args)
        out = capsys.readouterr().out
        assert code == 2
        assert "PERF REGRESSION" in out
        assert "attribution (ranked by relative change):" in out
        assert "pauli.expectations" in out
        assert "8 -> 16" in out

    def test_run_cli_clean_gate_prints_no_attribution(self, tmp_path,
                                                      monkeypatch, capsys):
        import argparse
        import json

        from repro.obs import bench

        base = _ledger()
        monkeypatch.chdir(tmp_path)
        (tmp_path / bench.BASELINE_NAME).write_text(json.dumps(base))
        monkeypatch.setattr(bench, "run_suite",
                            lambda quick=False, cases=None:
                            copy.deepcopy(base))
        monkeypatch.setattr(bench, "mps_speedup", lambda doc: (None, False))
        monkeypatch.setattr(bench, "adjoint_eval_ratio", lambda doc: None)

        args = argparse.Namespace(
            quick=True, cases=None, out=str(tmp_path / "BENCH_cur.json"),
            baseline=None, wall_threshold=0.10, no_wall_check=True,
            write_baseline=False)
        assert bench.run_cli(args) == 0
        assert "attribution" not in capsys.readouterr().out
