"""Tests for the real execution engine: executors, shared memory, bitwise
determinism of the parallel Pauli-group expectation, and the engine facade.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.chem.lattice import hubbard_ring
from repro.common.errors import ValidationError
from repro.common.reductions import kahan_sum, pairwise_sum
from repro.operators.molecular import molecular_qubit_hamiltonian
from repro.operators.pauli import QubitOperator, pauli_string
from repro.parallel.executor import (
    DEFAULT_PAULI_GROUPS,
    GroupedObservable,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_executors,
    default_worker_count,
    executor_spec,
    register_executor,
    resolve_executor,
    unregister_executor,
)
from repro.parallel.threelevel import ThreeLevelEngine


def _random_state(n_qubits: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    psi = (rng.standard_normal(2**n_qubits)
           + 1j * rng.standard_normal(2**n_qubits))
    return psi / np.linalg.norm(psi)


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
    def test_registry_lists_builtins(self):
        names = available_executors()
        assert {"serial", "thread", "process"} <= set(names)

    def test_third_party_registration(self):
        register_executor("custom_exec", SerialExecutor,
                          description="test registration")
        try:
            assert executor_spec("custom_exec").name == "custom_exec"
            assert isinstance(resolve_executor("custom_exec"), SerialExecutor)
        finally:
            unregister_executor("custom_exec")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValidationError):
            register_executor("serial", SerialExecutor)

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValidationError, match="serial"):
            resolve_executor("nope")

    def test_instance_passthrough(self):
        ex = SerialExecutor()
        assert resolve_executor(ex) is ex

    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1

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


def _square(x: int) -> int:
    """Top-level (picklable) helper for pool map tests."""
    return x * x


class TestGroupedObservableEdgeCases:
    def test_empty_hamiltonian(self):
        grouped = GroupedObservable(QubitOperator.zero(), 3)
        psi = _random_state(3)
        assert grouped.n_terms == 0
        assert grouped.expectation(psi) == 0.0

    def test_constant_only_hamiltonian(self):
        grouped = GroupedObservable(QubitOperator.identity(2.5), 3)
        psi = _random_state(3)
        assert grouped.expectation(psi) == pytest.approx(2.5)

    def test_single_group(self):
        op = QubitOperator.from_term(pauli_string("ZII"), 1.0)
        grouped = GroupedObservable(op, 3, n_groups=1)
        assert grouped.n_groups == 1

    def test_groups_clamped_to_term_count(self):
        # more groups requested than terms exist: no empty groups appear
        op = (QubitOperator.from_term(pauli_string("ZII"), 1.0)
              + QubitOperator.from_term(pauli_string("IXI"), 0.5))
        grouped = GroupedObservable(op, 3, n_groups=16)
        assert grouped.n_groups == 2

    def test_more_workers_than_groups(self):
        op = (QubitOperator.from_term(pauli_string("ZII"), 1.0)
              + QubitOperator.from_term(pauli_string("IXI"), 0.5))
        grouped = GroupedObservable(op, 3, n_groups=2)
        psi = _random_state(3)
        with ThreadExecutor(max_workers=6) as ex:
            parallel = grouped.expectation(psi, ex)
        assert parallel == grouped.expectation(psi)

    def test_invalid_group_count(self):
        with pytest.raises(ValidationError):
            GroupedObservable(QubitOperator.zero(), 2, n_groups=0)

    def test_state_size_validated(self):
        grouped = GroupedObservable(QubitOperator.identity(1.0), 3)
        with pytest.raises(ValidationError):
            grouped.expectation(np.ones(4, dtype=complex))

    def test_default_group_count(self):
        ham = molecular_qubit_hamiltonian(hubbard_ring(4).to_mo_integrals())
        grouped = GroupedObservable(ham)
        assert grouped.n_groups == DEFAULT_PAULI_GROUPS


class TestBitwiseDeterminism:
    """ISSUE acceptance: energies bitwise identical for workers in {1,2,4}."""

    def _check(self, hamiltonian, n_qubits):
        psi = _random_state(n_qubits)
        grouped = GroupedObservable(hamiltonian, n_qubits)
        reference = grouped.expectation(psi)  # serial in-line
        for workers in (1, 2, 4):
            with ThreadExecutor(max_workers=workers) as ex:
                assert grouped.expectation(psi, ex) == reference
            with ProcessExecutor(max_workers=workers) as ex:
                assert grouped.expectation(psi, ex) == reference
        return reference

    def test_h2_sto3g(self, h2):
        ham = molecular_qubit_hamiltonian(h2.mo)
        e = self._check(ham, 4)
        assert np.isfinite(e)

    def test_hubbard_ring_6_site(self):
        # 6-site lattice fragment: 12 qubits, the >=12-qubit regime of the
        # benchmark acceptance criterion
        ham = molecular_qubit_hamiltonian(hubbard_ring(6).to_mo_integrals())
        assert ham.n_qubits() == 12
        e = self._check(ham, 12)
        assert np.isfinite(e)

    def test_matches_dense_reference(self, h2):
        ham = molecular_qubit_hamiltonian(h2.mo)
        psi = _random_state(4)
        grouped = GroupedObservable(ham, 4)
        dense = float(np.real(np.vdot(psi, ham.matrix(4) @ psi)))
        assert grouped.expectation(psi) == pytest.approx(dense, abs=1e-10)


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
            report = engine.report()
        for s, p in zip(serial, parallel):
            assert p.energy == pytest.approx(s.energy, abs=1e-10)
        assert report["executor"] == "process"
        assert report["workers"] == 2
        assert report["levels"]["fragments"]["tasks"] == len(problems)

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

    def test_expectation_counters(self, h2):
        ham = molecular_qubit_hamiltonian(h2.mo)
        psi = _random_state(4)
        with ThreeLevelEngine(executor="serial") as engine:
            e1 = engine.expectation(ham, psi, 4)
            e2 = engine.expectation(ham, psi, 4)
            report = engine.report()
        assert e1 == e2
        assert report["levels"]["pauli_groups"]["calls"] == 2
