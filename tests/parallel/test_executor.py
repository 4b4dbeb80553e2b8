"""Tests for the real execution engine: the process executor (including a
worker that dies mid-task) and fragment dispatch.
"""

from __future__ import annotations

import os

import pytest

from repro.common.errors import ReproError, ValidationError, WorkerError
from repro.obs.flight import validate_flight
from repro.parallel.executor import (
    ProcessExecutor,
    default_worker_count,
    resolve_executor,
)
from repro.parallel.threelevel import ThreeLevelDriver


class TestExecutors:
    def test_unknown_name_lists_known(self):
        with pytest.raises(ValidationError, match="the only one is 'process'"):
            resolve_executor("nope")
        for gone in ("thread", "serial"):
            with pytest.raises(ValidationError, match="unknown executor"):
                resolve_executor(gone)

    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1

    @pytest.mark.parametrize("cls", [ProcessExecutor])
    def test_zero_workers_rejected(self, cls):
        # 0 is not "unset" (None is): it must not fall back to every CPU
        with pytest.raises(ValidationError, match="at least one worker"):
            cls(max_workers=0)

    @pytest.mark.parametrize("cls", [ProcessExecutor])
    def test_map_preserves_order(self, cls):
        with cls(max_workers=2) as ex:
            assert ex.map(_square, list(range(10))) == [i * i
                                                        for i in range(10)]

    def test_close_idempotent(self):
        ex = ProcessExecutor(max_workers=2)
        ex.map(_square, [1, 2])
        ex.close()
        ex.close()
        # pools are lazy: a closed executor can be used again
        assert ex.map(_square, [3]) == [9]
        ex.close()

    def test_killed_worker_is_structured_and_pool_recovers(self):
        with ProcessExecutor(max_workers=2) as ex:
            with pytest.raises(WorkerError) as exc:
                ex.map(_square_or_die, [1, 2, -1, 3])
            err = exc.value
            assert isinstance(err, ReproError)
            assert isinstance(err, RuntimeError)
            assert (err.executor, err.workers) == ("process", 2)
            validate_flight(err.flight)
            assert ("dispatch", "worker_died") in {
                (ev["kind"], ev["name"]) for ev in err.flight["events"]}
            # the broken pool is gone: the same executor maps again
            assert ex.map(_square, list(range(6))) == [i * i
                                                       for i in range(6)]


def _square(x: int) -> int:
    """Top-level (picklable) helper for pool map tests."""
    return x * x


def _square_or_die(x: int) -> int:
    """Kills its worker process outright on a negative input."""
    if x < 0:
        os._exit(1)
    return x * x


class TestThreeLevelEngine:
    """Fragment dispatch through ``ThreeLevelDriver.run_fragments_local``."""

    def test_fragment_dispatch_matches_serial(self, h4_ring):
        from repro.dmet.bath import build_bath
        from repro.dmet.dmet import atoms_per_fragment
        from repro.dmet.embedding import build_embedding_hamiltonian
        from repro.dmet.orthogonalize import lowdin_orthogonalize
        from repro.dmet.solvers import FCIFragmentSolver

        system = lowdin_orthogonalize(h4_ring.scf)
        problems = []
        for frag in atoms_per_fragment(system, 2):
            basis = build_bath(system.density, frag)
            problems.append(build_embedding_hamiltonian(system, basis))
        solver = FCIFragmentSolver()
        serial = [solver.solve(p) for p in problems]
        parallel = ThreeLevelDriver.run_fragments_local(problems, solver,
                                                        max_workers=2)
        for s, p in zip(serial, parallel):
            assert p.energy == pytest.approx(s.energy, abs=1e-10)

    def test_unpicklable_solver_rejected(self):
        """Checked by pickling it, not by trusting a flag: a solver that
        does not pickle is a ``ValidationError`` naming it, never a bare
        ``AttributeError`` from inside the pool."""

        class LocalSolver:
            """Does not pickle (class defined in a function)."""

            name = "local"

            def solve(self, problem, mu=0.0):
                raise AssertionError("should not be called")

        with pytest.raises(ValidationError,
                           match="'local' does not pickle.*n_workers=1"):
            ThreeLevelDriver.run_fragments_local([object()], LocalSolver(),
                                                 max_workers=2)
