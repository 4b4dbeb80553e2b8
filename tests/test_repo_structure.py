"""Meta-tests: the repository keeps its documented structure.

These pin DESIGN.md's promises - every subpackage documented, every
paper experiment mapped to a benchmark file, every example runnable -
so documentation drift fails CI rather than accumulating silently.
"""

import argparse
import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).resolve().parent
REPO = ROOT.parents[1]


def _iter_modules():
    for info in pkgutil.walk_packages([str(ROOT)], prefix="repro."):
        yield info.name


class TestDocstrings:
    def test_every_module_has_a_docstring(self):
        missing = []
        for name in _iter_modules():
            mod = importlib.import_module(name)
            if not (mod.__doc__ or "").strip():
                missing.append(name)
        assert not missing, f"modules without docstrings: {missing}"

    def test_public_classes_and_functions_documented(self):
        """Top-level public defs in every module carry docstrings."""
        undocumented = []
        for py in ROOT.rglob("*.py"):
            tree = ast.parse(py.read_text())
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    if node.name.startswith("_"):
                        continue
                    if ast.get_docstring(node) is None:
                        undocumented.append(f"{py.name}:{node.name}")
        assert not undocumented, undocumented


class TestImportWeight:
    def test_import_repro_leaves_scipy_stats_out(self):
        """``scipy.stats`` was 0.6 s of a 1.4 s ``import repro`` that every
        CLI call and benchmark workload paid, for two ``unitary_group``
        draws in ``circuits/hea.py``; it is imported by the function that
        draws."""
        import os
        import subprocess
        import sys

        code = ("import sys, repro, repro.circuits.hea; "
                "print('scipy.stats' in sys.modules); "
                "repro.circuits.hea.random_brick_circuit(2, 1, seed=0); "
                "print('scipy.stats' in sys.modules)")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": str(ROOT.parent)})
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == ["False", "True"]


class TestExperimentIndex:
    BENCH_FILES = [
        "bench_fig02c_simulators.py",
        "bench_fig07a_accuracy.py",
        "bench_fig07b_c18.py",
        "bench_fig08_software.py",
        "bench_fig09_memory.py",
        "bench_fig10_hydrogen_chain.py",
        "bench_fig11_kernels.py",
        "bench_fig12_13_scaling.py",
        "bench_sec5_ligands.py",
        "bench_ablations.py",
    ]

    def test_every_experiment_bench_exists(self):
        bench_dir = REPO / "benchmarks"
        for name in self.BENCH_FILES:
            assert (bench_dir / name).is_file(), f"missing {name}"

    def test_design_references_every_bench(self):
        design = (REPO / "DESIGN.md").read_text()
        for name in self.BENCH_FILES:
            assert name in design, f"DESIGN.md does not mention {name}"

    def test_experiments_doc_covers_every_figure(self):
        experiments = (REPO / "EXPERIMENTS.md").read_text()
        for tag in ("Fig. 2(c)", "Fig. 7(a)", "Fig. 7(b)", "Fig. 8",
                    "Fig. 9", "Fig. 10", "Fig. 11", "Figs. 12",
                    "Sec. V", "Ablations"):
            assert tag in experiments, f"EXPERIMENTS.md missing {tag}"


class TestExamples:
    def test_examples_present(self):
        examples = REPO / "examples"
        expected = ["quickstart.py", "hydrogen_ring_dmet.py",
                    "c18_bla_scan.py", "ligand_binding.py",
                    "sunway_scaling.py", "h2_dissociation.py"]
        for name in expected:
            assert (examples / name).is_file(), f"missing example {name}"

    def test_examples_have_main_guard_and_docstring(self):
        for py in (REPO / "examples").glob("*.py"):
            text = py.read_text()
            assert '__name__ == "__main__"' in text, py.name
            tree = ast.parse(text)
            assert ast.get_docstring(tree), f"{py.name} lacks a docstring"


class TestDocumentedCommands:
    #: one documented invocation: the subcommand, then its arguments - to
    #: the end of the line, and on through every following line that
    #: opens with a flag (backslash continuations, YAML folded scalars,
    #: wrapped prose); a backtick, comment or shell operator ends it
    COMMAND = re.compile(
        r"python3? -m repro ([a-z][\w-]*)((?:[^\n`#&|]|\n\s*(?=--))*)")

    @staticmethod
    def _subparsers() -> dict:
        from repro.__main__ import build_parser

        return next(
            action.choices for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))

    @classmethod
    def _documented(cls):
        """(file name, subcommand, argument text) per documented command."""
        sources = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md")),
                   REPO / ".github" / "workflows" / "ci.yml"]
        for path in sources:
            for sub, tail in cls.COMMAND.findall(path.read_text()):
                yield path.name, sub, tail

    def test_documented_subcommands_are_registered(self):
        registered = self._subparsers()
        stale = sorted((name, sub) for name, sub, _ in self._documented()
                       if sub not in registered)
        assert not stale, f"docs name unregistered subcommands: {stale}"

    def test_documented_flags_are_registered(self):
        registered = self._subparsers()
        stale = sorted(
            (name, sub, flag) for name, sub, tail in self._documented()
            if sub in registered
            for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", tail)
            if flag not in registered[sub]._option_string_actions)
        assert not stale, f"docs name unregistered flags: {stale}"

    def test_no_ledger_files_at_repo_root(self):
        """Benchmark results live under benchmarks/e2e/results only."""
        assert not sorted(p.name for p in REPO.glob("BENCH_*.json"))


class TestPackaging:
    def test_version_exposed(self):
        assert repro.__version__ == "1.0.0"

    def test_docs_exist(self):
        assert (REPO / "docs" / "ARCHITECTURE.md").is_file()
        assert (REPO / "docs" / "ALGORITHMS.md").is_file()
        assert (REPO / "README.md").is_file()
