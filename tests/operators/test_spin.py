"""Tests for spin observables and sector checks on solver wavefunctions."""

import numpy as np
import pytest

from repro.operators.spin import (
    number_operator,
    s2_operator,
    sz_operator,
)


class TestOperatorAlgebra:
    def test_sz_spectrum(self):
        """S_z eigenvalues for 2 spatial orbitals: -1, -1/2, 0, 1/2, 1."""
        sz = sz_operator(2)
        evals = np.unique(np.round(np.linalg.eigvalsh(sz.matrix(4)), 10))
        assert np.allclose(evals, [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_s2_spectrum_values(self):
        """S^2 eigenvalues are S(S+1): subset of {0, 0.75, 2}."""
        s2 = s2_operator(2)
        evals = np.unique(np.round(np.linalg.eigvalsh(s2.matrix(4)), 8))
        assert set(evals).issubset({0.0, 0.75, 2.0})

    def test_s2_commutes_with_sz(self):
        s2, sz = s2_operator(2), sz_operator(2)
        comm = (s2 * sz - sz * s2).simplify(1e-10)
        assert len(comm) == 0

    def test_number_spectrum(self):
        n_op = number_operator(4)
        evals = np.unique(np.round(np.linalg.eigvalsh(n_op.matrix(4)), 10))
        assert np.allclose(evals, [0, 1, 2, 3, 4])

    def test_hermitian(self):
        for op in (sz_operator(3), s2_operator(3), number_operator(6)):
            assert op.is_hermitian()


class TestWavefunctionSectors:
    def test_vqe_ground_state_is_singlet(self, h2):
        """Converged UCCSD-VQE state: N=2, S_z=0, S^2=0."""
        from repro.circuits.uccsd import UCCSDAnsatz
        from repro.operators.molecular import molecular_qubit_hamiltonian
        from repro.vqe.vqe import VQE

        ham = molecular_qubit_hamiltonian(h2.mo)
        vqe = VQE(ham, UCCSDAnsatz(2, 2), simulator="statevector")
        res = vqe.run()
        sim = vqe.evaluator.final_state(res.parameters)
        assert sim.expectation(number_operator(4)) == pytest.approx(
            2.0, abs=1e-8)
        assert sim.expectation(sz_operator(2)) == pytest.approx(0.0,
                                                                abs=1e-8)
        assert sim.expectation(s2_operator(2)) == pytest.approx(0.0,
                                                                abs=1e-7)

    def test_hamiltonian_commutes_with_s2(self, h2):
        from repro.operators.molecular import molecular_qubit_hamiltonian

        ham = molecular_qubit_hamiltonian(h2.mo)
        s2 = s2_operator(2)
        comm = (ham * s2 - s2 * ham).simplify(1e-9)
        assert len(comm) == 0

    def test_dmrg_state_is_singlet(self, h2):
        from repro.operators.molecular import molecular_qubit_hamiltonian
        from repro.simulators.dmrg import DMRG

        ham = molecular_qubit_hamiltonian(h2.mo)
        out = DMRG(ham, 4, max_bond_dimension=8, n_electrons=2).run(seed=3)
        psi = out.mps.to_statevector()
        s2 = s2_operator(2).matrix(4)
        assert np.real(psi.conj() @ s2 @ psi) == pytest.approx(0.0,
                                                               abs=1e-7)
