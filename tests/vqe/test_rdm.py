"""Tests for RDM measurement on simulated states."""

import numpy as np
import pytest
from scipy import sparse

from repro.circuits.uccsd import UCCSDAnsatz
from repro.operators.molecular import molecular_qubit_hamiltonian
from repro.vqe.energy import EnergyEvaluator
from repro.vqe.rdm import (
    build_rdm_program,
    excitation_qubit_operators,
    measure_rdms,
    per_term_expectations,
)

from ..properties.support import ExpectationOnly


@pytest.fixture(scope="module")
def h2_state(request):
    """Optimal H2 state prepared on the statevector backend."""
    h2 = request.getfixturevalue("h2")
    ham = molecular_qubit_hamiltonian(h2.mo)
    ev = EnergyEvaluator(ham, UCCSDAnsatz(2, 2).circuit(),
                         simulator="statevector")
    from repro.vqe.optimizers import minimize_scipy

    res = minimize_scipy(ev, np.zeros(2), method="COBYLA", tolerance=1e-10)
    return h2, ev.final_state(res.x)


class TestExcitationOperators:
    def test_count(self):
        ops = excitation_qubit_operators(3)
        assert len(ops) == 9

    def test_hermitian_conjugation(self):
        ops = excitation_qubit_operators(2)
        for p in range(2):
            for q in range(2):
                diff = (ops[(p, q)].dagger() - ops[(q, p)]).simplify()
                assert len(diff) == 0


class TestMeasureRDMs:
    def test_match_fci(self, h2_state):
        h2, sim = h2_state
        g1, g2 = measure_rdms(sim, 2)
        assert np.allclose(g1, h2.fci.one_rdm, atol=1e-6)
        assert np.allclose(g2, h2.fci.two_rdm, atol=1e-6)

    def test_energy_reconstruction(self, h2_state):
        """const + h.g1 + g.g2/2 must reproduce the FCI energy."""
        h2, sim = h2_state
        g1, g2 = measure_rdms(sim, 2)
        e = (h2.mo.constant
             + np.einsum("pq,pq->", h2.mo.h1, g1)
             + 0.5 * np.einsum("pqrs,pqrs->", h2.mo.h2, g2))
        assert e == pytest.approx(h2.fci.energy, abs=1e-6)

    def test_2rdm_symmetry(self, h2_state):
        _, sim = h2_state
        _, g2 = measure_rdms(sim, 2)
        assert np.allclose(g2, g2.transpose(2, 3, 0, 1), atol=1e-8)

    def test_hf_reference_rdms(self, h2):
        """At theta=0 the RDMs are the closed-shell HF ones."""
        ham = molecular_qubit_hamiltonian(h2.mo)
        ev = EnergyEvaluator(ham, UCCSDAnsatz(2, 2).circuit(),
                             simulator="statevector")
        sim = ev.final_state(np.zeros(2))
        g1, g2 = measure_rdms(sim, 2)
        assert g1[0, 0] == pytest.approx(2.0, abs=1e-10)  # occupied
        assert g1[1, 1] == pytest.approx(0.0, abs=1e-10)  # virtual
        # HF: Gamma_0000 = <E00 E00> - gamma_00 = 4 - 2 = 2
        assert g2[0, 0, 0, 0] == pytest.approx(2.0, abs=1e-10)


def _brick_state(backend, n_qubits, **options):
    from repro.backends import resolve_backend
    from repro.circuits.hea import random_brick_circuit

    sim = resolve_backend(backend, n_qubits, **options)
    return sim.run(random_brick_circuit(n_qubits, 6, seed=7))


class TestOnePassAgainstPerTermOracle:
    @pytest.mark.parametrize("backend,n_qubits,options", [
        ("statevector", 8, {}),
        ("density_matrix", 6, {}),
        ("mps", 8, {}),
        ("mps", 8, {"max_bond_dimension": 8}),
        ("mps", 8, {"max_bond_dimension": 4}),
    ])
    def test_circuit_backends(self, backend, n_qubits, options):
        sim = _brick_state(backend, n_qubits, **options)
        if options:
            assert sim.truncation_stats.total_discarded_weight > 0
        m = n_qubits // 2
        g1, g2 = measure_rdms(sim, m)
        o1, o2 = measure_rdms(ExpectationOnly(sim.copy()), m)
        assert np.abs(g1 - o1).max() <= 1e-12
        assert np.abs(g2 - o2).max() <= 1e-12
        assert np.array_equal(g1, g1.T)
        assert np.array_equal(g2, g2.transpose(2, 3, 0, 1))
        # tr gamma is the particle number of the state, whatever it is
        e_ops = excitation_qubit_operators(m)
        number = sum((e_ops[(p, p)] for p in range(1, m)), e_ops[(0, 0)])
        assert np.trace(g1) == pytest.approx(sim.expectation(number),
                                             abs=1e-12)

    def test_fast_adapter(self, h4_ring):
        """The UCCSD state the closed-form `fast` evaluator handed over
        through an adapter: the statevector backend's own final state."""
        ham = molecular_qubit_hamiltonian(h4_ring.mo)
        ev = EnergyEvaluator(ham, UCCSDAnsatz(4, 4).circuit(),
                             simulator="statevector")
        theta = np.linspace(-0.2, 0.3, ev.ansatz.n_parameters)
        sim = ev.final_state(theta)
        g1, g2 = measure_rdms(sim, 4)
        o1, o2 = measure_rdms(ExpectationOnly(sim), 4)
        assert np.abs(g1 - o1).max() <= 1e-12
        assert np.abs(g2 - o2).max() <= 1e-12
        assert np.trace(g1) == pytest.approx(4.0, abs=1e-12)  # UCC keeps N
        e = (h4_ring.mo.constant + np.einsum("pq,pq->", h4_ring.mo.h1, g1)
             + 0.5 * np.einsum("pqrs,pqrs->", h4_ring.mo.h2, g2))
        assert e == pytest.approx(ev.energy(theta), abs=1e-11)

    def test_hook_values_are_the_per_term_values(self):
        program = build_rdm_program(3)
        for backend in ("statevector", "density_matrix", "mps"):
            sim = _brick_state(backend, 6)
            assert np.abs(sim.term_expectations(program.terms)
                          - per_term_expectations(sim, program.terms)
                          ).max() <= 1e-12


def _operator_algebra_program(m):
    """The program built by multiplying QubitOperators term by term: the
    oracle of the vectorised build, which must match it bit for bit."""
    excitations = excitation_qubit_operators(m)
    one = [(p, q) for p in range(m) for q in range(p, m)]
    two = [(p, q, r, s)
           for p in range(m) for q in range(m)
           for r in range(m) for s in range(m)
           if (p, q, r, s) <= (r, s, p, q)]
    operators = [excitations[pq] for pq in one] + [
        excitations[p, q] * excitations[r, s] for p, q, r, s in two]
    column = {}
    rows, cols, data = [], [], []
    constant = np.zeros(len(operators))
    for row, op in enumerate(operators):
        for term, coeff in op:
            weight = complex(coeff).real
            if weight == 0.0:
                continue
            if term.is_identity():
                constant[row] += weight
                continue
            rows.append(row)
            cols.append(column.setdefault(term, len(column)))
            data.append(weight)
    table = sparse.csr_matrix((data, (rows, cols)),
                              shape=(len(operators), len(column)))
    return tuple(column), table, constant


class TestProgram:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_bitwise_the_operator_algebra_build(self, m):
        """Same strings in the same order, same table and constant bits."""
        program = build_rdm_program(m)
        terms, table, constant = _operator_algebra_program(m)
        assert program.terms == terms
        assert program.constant.tobytes() == constant.tobytes()
        assert program.table.shape == table.shape
        for part in ("data", "indices", "indptr"):
            got, want = getattr(program.table, part), getattr(table, part)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_strings_are_distinct_real_weighted_and_fewer_than_operators(self):
        program = build_rdm_program(4)
        assert len(set(program.terms)) == len(program.terms) == 508
        assert not any(t.is_identity() for t in program.terms)
        assert program.table.shape == (10 + 136, 508)
        assert program.table.dtype == float
        # every string is used: none is measured for nothing
        assert (np.diff(program.table.tocsc().indptr) > 0).all()

    def test_mps_rejects_identity_and_duplicates(self):
        from repro.common.errors import ValidationError
        from repro.operators.pauli import PauliTerm

        sim = _brick_state("mps", 4)
        z0 = PauliTerm.from_label("Z")
        with pytest.raises(ValidationError):
            sim.term_expectations([z0, PauliTerm(0, 0)])
        with pytest.raises(ValidationError):
            sim.term_expectations([z0, z0])
