"""Self-test of the end-to-end benchmark (``pytest benchmarks/e2e -q``).

Not collected by tier-1 (``testpaths = ["tests"]``).  Runs every workload
at its ``--smoke`` size (H2-sized inputs, under a minute in total) and
checks the contract with the driver: document shape, name alphabet and
count limits, counts that repeat exactly, an injected wrong energy that is
caught, and the self-time arithmetic on a synthetic span tree.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _run(*argv, check=True) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *argv],
                          capture_output=True, text=True, timeout=170)
    if check:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


# -- the contract file --------------------------------------------------------


def test_benchmark_json_matches_the_code():
    contract = json.loads((run.REPO / "BENCHMARK.json").read_text())
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert 1 <= contract["run_seconds"] <= 60
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in contract["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in contract["per_layer"]] == list(run.PER_LAYER)
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 and m["better"] == "lower"
               and set(m) == {"name", "unit", "better", "bound"}
               for m in contract["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_names_units_and_count_limits():
    names = [w.name for w in WORKLOADS.values()]
    names += [n for n, _ in run.END_TO_END] + [n for n, _, _ in run.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), names
    units = [u for _, u in run.END_TO_END] + [u for _, u, _ in run.PER_LAYER]
    assert all(UNIT.match(u) for u in units), units
    assert 2 <= len(WORKLOADS) <= 8
    assert len(run.END_TO_END) <= 16 and len(run.PER_LAYER) <= 128
    assert all(len(w.why) <= 200 and "\n" not in w.why
               for w in WORKLOADS.values())
    assert all(b in ("lower", "higher") for _, _, b in run.PER_LAYER)


# -- span arithmetic ----------------------------------------------------------


def test_self_time_on_a_synthetic_tree():
    spans = [
        # id, parent, name, start, end, thread
        (1, None, tracing.ROOT, 0.0, 10.0, "MainThread"),
        (2, 1, "vqe.energy", 1.0, 4.0, "MainThread"),
        (3, 2, "simulators.run", 2.0, 3.0, "MainThread"),
        # another thread, overlapping span 2: covered once, not twice
        (4, 1, "chem.fci", 3.5, 6.0, "scheduler"),
        # a child that outlives its parent is clipped to the parent
        (5, 1, "chem.prepare", 8.0, 12.0, "scheduler"),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (3.0 + 2.0 + 2.0))
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(1.0)
    summary = tracing.summarise(spans)
    assert summary["wall_s"] == pytest.approx(10.0)
    assert summary["unattributed_s"] == pytest.approx(3.0)
    assert summary["layers"] == pytest.approx(
        {"vqe": 2.0, "simulators.evolve": 1.0, "chem": 2.5 + 4.0})
    assert summary["names"]["vqe.energy"] == pytest.approx(
        {"calls": 1, "busy_s": 3.0, "self_s": 2.0})
    assert [d["depth"] for d in tracing.span_dicts(spans)] == [0, 1, 2, 1, 1]


def test_recorder_parents_other_threads_to_the_open_root():
    import threading

    rec = tracing.SpanRecorder()
    work = rec.wrap("chem.fci", lambda: None)
    with rec.root() as root:
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        work()
    calls = [s for s in rec.spans if s[2] == "chem.fci"]
    assert len({s[5] for s in calls}) == 2      # one span per thread
    assert all(s[1] == root for s in calls)


# -- smoke runs ---------------------------------------------------------------


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    paths = [out / "a.json", out / "b.json"]
    trace = out / "trace.json"
    _run("--smoke", "--repeats", "3", "--out", str(paths[0]),
         "--trace-out", str(trace))
    _run("--smoke", "--repeats", "1", "--out", str(paths[1]))
    return paths, trace


def test_document_shape(documents):
    (path, _), trace = documents
    doc = json.loads(path.read_text())
    assert doc["schema"] == run.SCHEMA
    prov = doc["provenance"]
    for key in ("nproc", "cpu_affinity", "python", "numpy", "scipy", "blas",
                "thread_env", "git_commit", "seed", "repeats", "date"):
        assert key in prov
    assert list(doc["workloads"]) == list(WORKLOADS)
    for row in doc["workloads"].values():
        assert row["failed"] == 0 and row["fail_frac"] == 0.0, row["failures"]
        assert list(row["end_to_end"]) == [n for n, _ in run.END_TO_END]
        for cell in row["end_to_end"].values():
            assert cell["n"] == 3 == len(cell["values"])
            assert 0 < cell["min"] <= cell["value"] <= cell["median"] \
                <= cell["max"]
        assert list(row["per_layer"]) == [n for n, _, _ in run.PER_LAYER]
        assert "unattributed" in row["layers"]
        assert sum(c["share"] for c in row["layers"].values()) == \
            pytest.approx(1.0, abs=0.02)
    events = json.loads(trace.read_text())["traceEvents"]
    assert {e["name"] for e in events if e["ph"] == "X"} >= {
        tracing.ROOT, "chem.prepare", "vqe.run", "dmet.run"}


def test_counts_repeat_and_compare_agrees(documents):
    (a, b), _ = documents
    proc = _run("--compare", str(a), str(b), check=False)
    docs = [json.loads(p.read_text())["workloads"] for p in (a, b)]
    for name in WORKLOADS:
        for metric, unit, _ in run.PER_LAYER:
            if unit == "count":
                assert docs[0][name]["per_layer"][metric] == \
                    docs[1][name]["per_layer"][metric], (name, metric)
    assert "differs" not in proc.stdout and "ROSE" not in proc.stdout
    assert "setup_s" in proc.stdout and "wall_s" in proc.stdout


def test_compare_flags_a_regression(documents, tmp_path):
    (a, _), _ = documents
    doc = json.loads(a.read_text())
    cell = doc["workloads"]["lih_step"]["end_to_end"]["wall_s"]
    cell["value"] *= 1.5
    doc["workloads"]["serve_mix"]["fail_frac"] = 0.05
    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps(doc))
    proc = _run("--compare", str(a), str(slow), check=False)
    assert proc.returncode == 1
    assert "REGRESSION" in proc.stdout and "ROSE" in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_line(trace):
    proc = _run("--workload", "serve_mix", "--seed", "5", "--seconds", "0",
                "--trace", str(trace), "--smoke")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 6
    expected = [(n, u) for n, u, _ in run.PER_LAYER] if trace \
        else list(run.END_TO_END)
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == expected
    for name, _ in expected:      # every metric printed by name, with unit
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ \S+$", proc.stdout,
                         re.M), name


def test_injected_wrong_energy_is_caught():
    proc = _run("--workload", "h2_vqe", "--seed", "5", "--seconds", "0",
                "--trace", "0", "--smoke", "--inject-error", check=False)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == run.MIN_REPS
    assert "FAILED" in proc.stdout


def test_refuses_to_run_without_the_package(tmp_path):
    bare = tmp_path / "benchmarks" / "e2e"
    bare.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bare / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "h2_vqe",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode not in (0, None)
    assert not proc.stdout.strip()
