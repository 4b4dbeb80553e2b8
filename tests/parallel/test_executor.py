"""Tests for the real execution engine: executors (including a worker
that dies mid-task), deterministic reductions, and the fragment engine.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from repro.common.errors import ReproError, ValidationError, WorkerError
from repro.common.reductions import kahan_sum, pairwise_sum
from repro.obs.flight import validate_flight
from repro.parallel.executor import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    default_worker_count,
    resolve_executor,
)
from repro.parallel.threelevel import ThreeLevelEngine


class TestReductions:
    def test_kahan_matches_fsum(self):
        rng = np.random.default_rng(3)
        vals = list(rng.standard_normal(500) * 10.0**rng.integers(-8, 8, 500))
        assert kahan_sum(vals) == pytest.approx(math.fsum(vals), abs=1e-9)

    def test_kahan_beats_naive(self):
        # small addends lost against a large total: naive addition drops
        # every 1.0, compensation recovers them
        vals = [1e16] + [1.0] * 100
        assert kahan_sum(vals) == 1e16 + 100.0
        assert sum(vals) != kahan_sum(vals)

    def test_pairwise_fixed_topology(self):
        rng = np.random.default_rng(4)
        vals = list(rng.standard_normal(100))
        assert pairwise_sum(vals) == pairwise_sum(list(vals))
        assert pairwise_sum(vals) == pytest.approx(math.fsum(vals), abs=1e-12)

    def test_empty_sums(self):
        assert kahan_sum([]) == 0.0
        assert pairwise_sum([]) == 0.0


class TestExecutors:
    def test_unknown_name_lists_known(self):
        with pytest.raises(ValidationError, match="serial"):
            resolve_executor("nope")

    def test_instance_passthrough(self):
        ex = SerialExecutor()
        assert resolve_executor(ex) is ex

    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1

    @pytest.mark.parametrize("cls", [ThreadExecutor, ProcessExecutor])
    def test_zero_workers_rejected(self, cls):
        # 0 is not "unset" (None is): it must not fall back to every CPU
        with pytest.raises(ValidationError, match="at least one worker"):
            cls(max_workers=0)

    @pytest.mark.parametrize("cls", [SerialExecutor, ThreadExecutor,
                                     ProcessExecutor])
    def test_map_preserves_order(self, cls):
        with cls(max_workers=2) as ex:
            assert ex.map(_square, list(range(10))) == [i * i
                                                        for i in range(10)]

    def test_close_idempotent(self):
        ex = ThreadExecutor(max_workers=2)
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
    def test_fragment_dispatch_matches_serial(self, h4_ring):
        from repro.dmet.bath import build_bath
        from repro.dmet.dmet import atoms_per_fragment
        from repro.dmet.embedding import build_embedding_hamiltonian
        from repro.dmet.orthogonalize import attach_labels, lowdin_orthogonalize
        from repro.dmet.solvers import FCIFragmentSolver

        attach_labels(h4_ring.scf, h4_ring.rhf.basis)
        system = lowdin_orthogonalize(h4_ring.scf, h4_ring.eri_ao)
        problems = []
        for frag in atoms_per_fragment(system, 2):
            basis = build_bath(system.density, frag)
            problems.append(build_embedding_hamiltonian(system, basis))
        serial = [FCIFragmentSolver().solve(p) for p in problems]
        with ThreeLevelEngine(executor="process", max_workers=2) as engine:
            parallel = engine.run_fragments(problems, "fci")
        for s, p in zip(serial, parallel):
            assert p.energy == pytest.approx(s.energy, abs=1e-10)

    def test_unpicklable_solver_rejected(self):
        class LocalSolver:
            """Deliberately unpicklable (class defined in a function)."""

            picklable = False
            name = "local"

            def solve(self, problem, mu=0.0):
                raise AssertionError("should not be called")

        with ThreeLevelEngine(executor="process", max_workers=2) as engine:
            with pytest.raises(ValidationError, match="picklable"):
                engine.run_fragments([object()], LocalSolver())
